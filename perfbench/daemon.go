package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gnn"
)

// daemon is one running gnnserve process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	flags  []string
	exited chan struct{}
	err    error // the process's exit status, valid once exited is closed
}

// startDaemon spawns gnnserve on snap with its default flags except the
// listen address and the compaction threshold. Its logs go to /dev/null.
// cpu >= 0 confines it to that CPU.
func startDaemon(bin, snap string, compactThreshold, cpu int) (*daemon, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	flags := []string{"-addr", addr, "-snapshot", snap}
	if compactThreshold > 0 {
		flags = append(flags, "-compact-threshold", strconv.Itoa(compactThreshold))
	}
	cmd := exec.Command(bin, flags...)
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startOnCPU(cmd, cpu); err != nil {
		return nil, fmt.Errorf("starting gnnserve: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, flags: flags, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// freeLoopbackAddr asks the kernel for an unused loopback port.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitReady polls /readyz until it returns 200.
func (d *daemon) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("gnnserve exited before ready: %v", d.err)
		default:
		}
		if status, _, err := get(c, d.url+"/readyz"); err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("gnnserve not ready in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (gnnserve drains and exits) and waits for the exit,
// killing the process if the drain hangs.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.err
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("gnnserve did not drain in 20s; killed")
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// setupTimes breaks one set-up down into its steps.
type setupTimes struct {
	build, write, start, firstQuery, total time.Duration
}

// setup builds the index from the points, writes the snapshot, starts
// gnnserve on it and waits until /readyz returns 200 and the first query
// (which forces the lazy checksum verify) has been answered.
func setup(w workloadSpec, pts []gnn.Point, ids []int64, snap, bin string, cpu int, c *http.Client, firstQuery []byte) (*daemon, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	var closer interface{ Close() error }
	var writeSnap func(string) error
	if w.shards > 0 {
		sx, err := gnn.BuildShardedIndex(pts, ids, w.shards, gnn.IndexConfig{})
		if err != nil {
			return nil, st, err
		}
		closer, writeSnap = sx, sx.WriteSnapshotFile
	} else {
		ix, err := gnn.BuildIndex(pts, ids, gnn.IndexConfig{})
		if err != nil {
			return nil, st, err
		}
		closer, writeSnap = ix, ix.WriteSnapshotFile
	}
	t1 := time.Now()
	err := writeSnap(snap)
	closer.Close()
	if err != nil {
		return nil, st, fmt.Errorf("writing snapshot: %w", err)
	}
	t2 := time.Now()
	d, err := startDaemon(bin, snap, w.compactThreshold, cpu)
	if err != nil {
		return nil, st, err
	}
	if err := d.waitReady(c, 60*time.Second); err != nil {
		d.stop()
		return nil, st, err
	}
	t3 := time.Now()
	resp, err := c.Post(d.url+opQuery.path(), "application/json", bytes.NewReader(firstQuery))
	if err == nil {
		_, err = readAll(nil, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("first query: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, st, err
	}
	t4 := time.Now()
	st = setupTimes{build: t1.Sub(t0), write: t2.Sub(t1), start: t3.Sub(t2), firstQuery: t4.Sub(t3), total: t4.Sub(t0)}
	return d, st, nil
}

// fsType names the filesystem holding dir, for the provenance record.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(filepath.Clean(dir), &s); err != nil {
		return "unknown"
	}
	switch uint32(s.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(s.Type))
	}
}

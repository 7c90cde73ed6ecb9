// Command perfbench is the repository benchmark. It starts the real
// gnnserve binary on a snapshot generated from a fixed data set, drives
// it over loopback HTTP with one closed-loop client that replays a
// request script generated from the seed, checks the answers against a
// brute-force reference, and prints one JSON result line. With -trace 1
// it also times the same queries at each layer boundary in-process and
// prints the per-layer ledger instead of the end-to-end metrics.
//
// Run it from the repository root through run.sh, which builds this
// package and gnnserve from source first:
//
//	bash perfbench/run.sh --workload ts-sum-n64 --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gnn/internal/server"
)

const (
	// setupReps is how many times a run sets up from scratch; setup_s is
	// the median, and the last daemon serves the timed window.
	setupReps = 5
	// warmupOps reads are sent before the timed window and not measured.
	warmupOps = 300
	// windowCap bounds the timed window at windowCap × --seconds. The
	// script fits --seconds on a calm host; on a slow one the rest of the
	// script is not sent, so a run stays within its time budget.
	windowCap = 2
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "seed of the request script")
		seconds = flag.Int("seconds", 15, "run length; sizes the request script")
		trace   = flag.Int("trace", 0, "1: print the per-layer ledger instead of the end-to-end metrics")
		bin     = flag.String("gnnserve", "", "path to the gnnserve binary")
		dir     = flag.String("dir", "", "directory for snapshots and other run files")
	)
	flag.Parse()
	if *bin == "" || *dir == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -gnnserve BIN -dir DIR --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *trace == 1, *bin, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// provenance is printed before the result so every run records what it
// measured and on what.
type provenance struct {
	Workload         string   `json:"workload"`
	Seed             int64    `json:"seed"`
	NumCPU           int      `json:"num_cpu"`
	GOMAXPROCS       int      `json:"gomaxprocs"`
	GoVersion        string   `json:"go_version"`
	Dataset          string   `json:"dataset"`
	DatasetSeed      int64    `json:"dataset_seed"`
	Points           int      `json:"points"`
	Shards           int      `json:"shards"`
	Aggregate        string   `json:"aggregate"`
	GroupSize        int      `json:"group_size"`
	K                int      `json:"k"`
	ScriptOps        int      `json:"script_ops"`
	TimedOps         int      `json:"timed_ops"`
	WriteShare       float64  `json:"write_share"`
	CompactThreshold int      `json:"compact_threshold"`
	DaemonFlags      []string `json:"daemon_flags"`
	ClientCPU        int      `json:"client_cpu"`
	DaemonCPU        int      `json:"daemon_cpu"`
	SnapshotFS       string   `json:"snapshot_fs"`
	FlushPolicy      string   `json:"flush_policy"`
	Load             string   `json:"load"`
	SetupReps        int      `json:"setup_reps"`
}

func run(name string, seed int64, seconds int, traced bool, bin, dir string) (*result, error) {
	start := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s done at %.1fs\n", name, time.Since(start).Seconds())
	}
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	pts, ids := w.basePoints()
	s, err := buildScript(w, pts, seed, seconds)
	if err != nil {
		return nil, err
	}
	phase("inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// The client gets one core and the daemon the other, so neither is
	// migrated under the other and every hand-off crosses the same pair
	// of CPUs. The client runs one P on its core.
	clientCPU, daemonCPU := -1, -1
	if cpus, err := allowedCPUs(); err == nil && len(cpus) >= 2 {
		clientCPU, daemonCPU = cpus[0], cpus[1]
		if err := pinProcess(clientCPU); err != nil {
			return nil, err
		}
	}
	runtime.GOMAXPROCS(1)

	c := newClient()
	first := s.firstQueries(1)[0].body
	var d *daemon
	var setups []setupTimes
	for r := range setupReps {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up daemon: %w", err)
			}
			c.CloseIdleConnections()
		}
		runtime.GC()
		var st setupTimes
		d, st, err = setup(w, pts, ids, filepath.Join(runDir, fmt.Sprintf("serve-%d.snap", r)), bin, daemonCPU, c, first)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st)
	}
	defer d.stop()
	phase("set-up")

	drive(c, d.url, s.firstQueries(warmupOps), noLimit)
	// The client's garbage collector stays on in the window. Held off, the
	// window's garbage would grow the client to about 590 MB on
	// pp-sum-n4-rw instead of 180 MB, for a p50 about 2% lower.
	runtime.GC()
	outs, window := drive(c, d.url, s.ops, windowCap*time.Duration(seconds)*time.Second)
	ops := s.ops[:len(outs)]
	phase("timed window")

	var stats server.StatsResponse
	status, body, err := get(c, d.url+"/v1/stats")
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &stats)
	} else if err == nil {
		err = fmt.Errorf("/v1/stats: status %d", status)
	}
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping gnnserve: %w", err)
	}
	c.CloseIdleConnections()

	live := newLiveSet(pts, ids)
	t := verify(live, ops, outs, w.k, w.agg == "max")
	phase("answer check")

	writeShare := 0.0
	if w.writeEvery > 0 {
		writeShare = 1 / float64(w.writeEvery)
	}
	prov := provenance{
		Workload: w.name, Seed: seed,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Dataset: w.dataset, DatasetSeed: datasetSeed, Points: len(pts), Shards: w.shards,
		Aggregate: w.agg, GroupSize: w.n, K: w.k,
		ScriptOps: len(s.ops), TimedOps: len(ops), WriteShare: writeShare,
		CompactThreshold: w.compactThreshold, DaemonFlags: d.flags, SnapshotFS: fsType(runDir),
		ClientCPU: clientCPU, DaemonCPU: daemonCPU,
		FlushPolicy: "gnnserve's own crash-safe snapshot rotation (temp, fsync, verify, rename, dir fsync); nothing else is flushed",
		Load:        "closed loop, 1 client, 1 keep-alive loopback connection; client and daemon each confined to one CPU (GOMAXPROCS 1 each)",
		SetupReps:   setupReps,
	}
	if b, err := json.Marshal(map[string]any{"provenance": prov}); err == nil {
		fmt.Println(string(b))
	}

	reads := latencies(ops, outs, isQuery)
	writes := latencies(ops, outs, isWrite)
	p50, _ := percentile(reads, 50)
	completed := 0
	for _, o := range outs {
		if statusOK(o.status) {
			completed++
		}
	}
	var setupS []float64
	for _, st := range setups {
		setupS = append(setupS, st.total.Seconds())
	}
	// Latencies and throughput are printed for reading, with their sample
	// counts, but not bounded: on a shared host they move with the host's
	// speed far more than the largest bound allows.
	fmt.Printf("# %s seed=%d: %d answers checked, %d set-ups, %d compactions; %s\n",
		w.name, seed, t.checked, len(setups), stats.Overlay.CompactionGen, t)
	qps := float64(completed) / window.Seconds()
	naPerQuery := float64(t.nodeAccess) / float64(max(t.queries, 1))
	fmt.Printf("# qps %.6g 1/s (%d requests in %.3g s)\n", qps, completed, window.Seconds())
	fmt.Printf("# failed_frac %.6g ratio (%d of %d)\n", t.failedFrac(), t.failed(), t.attempted)
	fmt.Printf("# na_per_query %.6g count (mean of %d answers)\n", naPerQuery, t.queries)
	fmt.Printf("# setup_s %.6g s (median of %d set-ups)\n", median(setupS), len(setupS))
	fmt.Printf("# peak_rss_mb %.6g MB (VmHWM of the gnnserve process)\n", rss)
	for _, l := range []struct {
		name string
		xs   []float64
		p    float64
	}{{"p50_ms", reads, 50}, {"p99_ms", reads, 99}, {"write_p50_ms", writes, 50}, {"write_p99_ms", writes, 99}} {
		if len(l.xs) > 0 {
			v, beyond := percentile(l.xs, l.p)
			fmt.Printf("# %s %.6g ms (n=%d, %d beyond)\n", l.name, v, len(l.xs), beyond)
		}
	}

	res := &result{
		Correct:   t.failed() == 0,
		Attempted: t.attempted,
		Failed:    t.failed(),
	}
	if traced {
		// The in-process layers get what the daemon had: its core, one P.
		if daemonCPU >= 0 {
			if err := pinProcess(daemonCPU); err != nil {
				return nil, err
			}
		}
		m, err := runLedger(w, pts, ids, s, runDir, e2eSummary{
			p50US: p50 * 1000, setups: setups, compactionGen: stats.Overlay.CompactionGen,
		})
		if err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		res.Metrics = m
		return res, nil
	}
	res.Metrics = map[string]metric{
		"na_per_query": {naPerQuery, "count"},
		"ok_frac":      {1 - t.failedFrac(), "ratio"},
		"setup_s":      {median(setupS), "s"},
		"peak_rss_mb":  {rss, "MB"},
	}
	return res, nil
}

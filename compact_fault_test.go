package gnn_test

// Fault table for crash-safe snapshot rotation: compaction is killed at
// every rotation stage (plus a torn-write corruption, a flipped byte in
// every section and a simulated full disk) while readers hammer the
// index. Requirements: zero failed
// queries, the previous snapshot generation survives intact and
// decodable, no temp-file orphans, the failure lands in
// Stats().LastCompactionError, and the next clean cycle rotates
// successfully.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"gnn"
	"gnn/internal/snapshot"
	"gnn/internal/snapshot/snapshottest"
)

type faultCase struct {
	name string
	hook func(stage, tmp string) error
	// postCommit marks a fault injected after the rename: the rotation
	// reports failure but the new generation is already durable — the
	// on-disk file holds the NEW state, never a torn one.
	postCommit bool
	// want, when set, is the typed error the failed rotation must wrap.
	want error
}

// sectionFlipCases returns one fault per named section: at StageVerify
// the byte in the middle of the first such section's payload (located
// through the temp file's section table) is flipped. The rotation's
// verify must reject each with ErrSnapshotChecksum before the rename —
// the column sections included, whose checksums the verify reads through
// the file rather than a mapping.
func sectionFlipCases(names ...string) []faultCase {
	var cases []faultCase
	for _, name := range names {
		cases = append(cases, faultCase{
			name: "flip-" + name,
			want: gnn.ErrSnapshotChecksum,
			hook: func(stage, tmp string) error {
				if stage != snapshot.StageVerify {
					return nil
				}
				data, err := os.ReadFile(tmp)
				if err != nil {
					return err
				}
				secs, ok := snapshottest.Sections(data)
				if !ok {
					return errors.New("temp file has no section table")
				}
				for _, sec := range secs {
					if sec.Name == name && sec.Length > 0 {
						data[sec.Offset+sec.Length/2] ^= 0x20
						return os.WriteFile(tmp, data, 0o644)
					}
				}
				return fmt.Errorf("temp file has no non-empty %s section", name)
			},
		})
	}
	return cases
}

// treeSections names every per-tree section of the format.
var treeSections = []string{"meta", "levels", "pages", "ranges", "children", "rect-lo", "rect-hi", "points", "ids"}

func faultTable() []faultCase {
	var cases []faultCase
	for _, stage := range []string{
		snapshot.StageCreate, snapshot.StageWrite, snapshot.StageSync,
		snapshot.StageVerify, snapshot.StageRename, snapshot.StageDirSync,
	} {
		s := stage
		cases = append(cases, faultCase{
			name: "kill-at-" + s,
			hook: func(stage, tmp string) error {
				if stage == s {
					return errors.New("injected crash")
				}
				return nil
			},
			postCommit: s == snapshot.StageDirSync,
		})
	}
	cases = append(cases,
		faultCase{
			// A torn write: the temp file is silently truncated after the
			// fsync. The strict re-decode before rename must catch it.
			name: "corrupt-temp",
			hook: func(stage, tmp string) error {
				if stage == snapshot.StageVerify {
					if err := os.Truncate(tmp, 10); err != nil {
						return err
					}
				}
				return nil
			},
		},
		faultCase{
			name: "disk-full",
			hook: func(stage, tmp string) error {
				if stage == snapshot.StageSync {
					return fmt.Errorf("fsync: %w", syscall.ENOSPC)
				}
				return nil
			},
		},
	)
	return cases
}

// TestCompactionFaultTablePlain drives the full fault table, and a
// flipped byte in every section, against a plain index with a rotation
// path configured.
func TestCompactionFaultTablePlain(t *testing.T) {
	pts, groups, _ := overlayFixture(t, 300, 81)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "serving.snap")

	// A stale orphan from a "crashed" previous process is swept on start.
	if err := os.WriteFile(snapshot.TempPath(path), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Threshold is unreachably high: the background loop stays idle and
	// the test drives cycles synchronously via Compact, so the Failpoint
	// global is only touched from one goroutine.
	if err := ix.StartCompactor(gnn.CompactorConfig{Threshold: 1 << 30, Path: path}); err != nil {
		t.Fatal(err)
	}
	defer ix.StopCompactor()
	if _, err := os.Stat(snapshot.TempPath(path)); !os.IsNotExist(err) {
		t.Fatalf("stale temp not removed on StartCompactor: %v", err)
	}

	// Establish a good generation zero.
	next := int64(100_000)
	mutate := func() {
		t.Helper()
		if err := ix.Insert(gnn.Point{float64(next % 100), float64((next / 7) % 100)}, next); err != nil {
			t.Fatal(err)
		}
		next++
	}
	mutate()
	if err := ix.Compact(); err != nil {
		t.Fatalf("clean rotation: %v", err)
	}
	goodLen := ix.Len()
	assertSnapshotServes := func(wantLen int) {
		t.Helper()
		loaded, err := gnn.OpenSnapshotFile(path)
		if err != nil {
			t.Fatalf("snapshot file not decodable: %v", err)
		}
		if loaded.Len() != wantLen {
			t.Fatalf("snapshot generation: Len %d, want %d", loaded.Len(), wantLen)
		}
	}
	assertSnapshotServes(goodLen)

	// Readers hammer the index across the whole table; any error is a
	// failed query under fault injection.
	var qerrs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ix.GroupNN(groups[w%len(groups)], gnn.WithK(3)); err != nil {
					qerrs.Add(1)
				}
			}
		}(w)
	}

	for _, fc := range append(faultTable(), sectionFlipCases(treeSections...)...) {
		mutate()
		snapshot.Failpoint = fc.hook
		err := ix.Compact()
		snapshot.Failpoint = nil
		if err == nil {
			t.Fatalf("%s: compaction reported success", fc.name)
		}
		if fc.want != nil && !errors.Is(err, fc.want) {
			t.Fatalf("%s: compaction error %v, want %v", fc.name, err, fc.want)
		}
		// The in-memory swap still happened: serving degrades to
		// memory-only, it does not stall.
		s := ix.Stats()
		if s.Delta != 0 || s.Tombstones != 0 {
			t.Fatalf("%s: overlay not folded after failed rotation: %+v", fc.name, s)
		}
		if s.LastCompactionError == "" || !strings.Contains(s.LastCompactionError, "rotate") {
			t.Fatalf("%s: LastCompactionError = %q", fc.name, s.LastCompactionError)
		}
		// Pre-commit faults leave the previous generation untouched and
		// decodable; a post-commit fault (dirsync) already renamed the new
		// generation in. Either way the file is never torn.
		if fc.postCommit {
			goodLen = ix.Len()
		}
		assertSnapshotServes(goodLen)
		if _, err := os.Stat(snapshot.TempPath(path)); !os.IsNotExist(err) {
			t.Fatalf("%s: temp orphan left behind: %v", fc.name, err)
		}
		// The next clean cycle rotates the accumulated state out.
		mutate()
		if err := ix.Compact(); err != nil {
			t.Fatalf("%s: clean cycle after fault: %v", fc.name, err)
		}
		goodLen = ix.Len()
		assertSnapshotServes(goodLen)
		if s := ix.Stats(); s.LastCompactionError != "" {
			t.Fatalf("%s: error not cleared by clean cycle: %q", fc.name, s.LastCompactionError)
		}
	}

	close(stop)
	wg.Wait()
	if n := qerrs.Load(); n != 0 {
		t.Fatalf("%d queries failed during fault injection", n)
	}
}

// TestCompactionFaultTableSharded spot-checks the same contract on the
// sharded rotation path (same AtomicWriteFile machinery underneath), with
// a flipped byte in every section, the manifest extension included.
func TestCompactionFaultTableSharded(t *testing.T) {
	pts, groups, _ := overlayFixture(t, 300, 82)
	sx, err := gnn.BuildShardedIndex(pts, nil, 3, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "sharded.snap")
	if err := sx.StartCompactor(gnn.CompactorConfig{Threshold: 1 << 30, Path: path}); err != nil {
		t.Fatal(err)
	}
	defer sx.StopCompactor()

	if err := sx.Insert(gnn.Point{1, 2}, 9001); err != nil {
		t.Fatal(err)
	}
	if err := sx.Compact(); err != nil {
		t.Fatalf("clean rotation: %v", err)
	}
	goodLen := sx.Len()

	cases := []faultCase{faultTable()[4], faultTable()[6]} // kill-at-rename, corrupt-temp
	cases = append(cases, sectionFlipCases(append([]string{"hilbert"}, treeSections...)...)...)
	for _, fc := range cases {
		if err := sx.Insert(gnn.Point{3, 4}, 9002); err != nil {
			t.Fatal(err)
		}
		snapshot.Failpoint = fc.hook
		err := sx.Compact()
		snapshot.Failpoint = nil
		if err == nil {
			t.Fatalf("%s: compaction reported success", fc.name)
		}
		if fc.want != nil && !errors.Is(err, fc.want) {
			t.Fatalf("%s: compaction error %v, want %v", fc.name, err, fc.want)
		}
		if s := sx.Stats(); s.Delta != 0 || s.LastCompactionError == "" {
			t.Fatalf("%s: stats after failed rotation: %+v", fc.name, s)
		}
		loaded, oerr := gnn.OpenSnapshotFile(path)
		if oerr != nil {
			t.Fatalf("%s: previous sharded snapshot not decodable: %v", fc.name, oerr)
		}
		if loaded.Len() != goodLen {
			t.Fatalf("%s: snapshot Len %d, want %d", fc.name, loaded.Len(), goodLen)
		}
		loaded.Close()
		if _, err := os.Stat(snapshot.TempPath(path)); !os.IsNotExist(err) {
			t.Fatalf("%s: temp orphan left behind: %v", fc.name, err)
		}
		if _, err := sx.GroupNN(groups[0], gnn.WithK(2)); err != nil {
			t.Fatalf("%s: query after failed rotation: %v", fc.name, err)
		}
		if !sx.Delete(gnn.Point{3, 4}, 9002) {
			t.Fatalf("%s: cleanup delete failed", fc.name)
		}
		if err := sx.Compact(); err != nil {
			t.Fatalf("%s: clean cycle after fault: %v", fc.name, err)
		}
		goodLen = sx.Len()
	}
}

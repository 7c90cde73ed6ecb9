//go:build unix && !mmapfallback

package gnn_test

import (
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gnn"
)

// TestMappedHeapPerPoint pins the mapped serving memory contract: the
// file's coordinate columns are the only copy of the points, so opening
// a mapped snapshot and answering a query leaves the retained heap
// grown by less than one byte per indexed point (a point-major view
// would cost about 40). Built only where the mapping is a real mmap:
// the mmapfallback build reads the file onto the heap by design.
func TestMappedHeapPerPoint(t *testing.T) {
	const n = 100_000
	path := func() string {
		rng := rand.New(rand.NewSource(41))
		ix, err := gnn.BuildIndex(randGroup(rng, n), nil, gnn.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return writeSnapFile(t, t.TempDir(), "heap.snap", ix.WriteSnapshotFile)
	}()
	group := []gnn.Point{{400, 400}, {430, 460}, {470, 410}}

	before := liveHeap()
	mapped, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	res, err := mapped.GroupNN(group, gnn.WithK(8))
	if err != nil || len(res) != 8 {
		t.Fatalf("query: %d results, err %v", len(res), err)
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(mapped)
	if grown >= n {
		t.Fatalf("mapped open + first query retained %d heap bytes, %.2f per point (budget < 1)",
			grown, float64(grown)/n)
	}
	t.Logf("retained heap grew by %d bytes (%.3f per point)", grown, float64(grown)/n)
}

// TestCompactedMappedHeap pins the compaction memory contract of a
// mapped index: a compaction packs the live points straight into a new
// arena, so the retained heap afterwards is that arena and little else,
// and
// one cycle, snapshot rotation included, allocates a small multiple of
// the arena rather than copies of it in every intermediate form.
func TestCompactedMappedHeap(t *testing.T) {
	const n, inserts, deletes = 100_000, 1_500, 500
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(43))
	pts := randGroup(rng, n)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapFile(t, dir, "base.snap", ix.WriteSnapshotFile)
	ins := randGroup(rng, inserts)
	del := append([]gnn.Point(nil), pts[:deletes]...)
	ix, pts = nil, nil

	before := liveHeap()
	mx, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	// The background loop never fires: only the Compact below runs, with
	// the rotation the compactor configures.
	err = mx.StartCompactor(gnn.CompactorConfig{Threshold: math.MaxInt, Interval: time.Hour,
		Path: filepath.Join(dir, "rotated.snap")})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ins {
		if err := mx.Insert(p, int64(n+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range del {
		if !mx.Delete(p, int64(i)) {
			t.Fatalf("delete of base point %d failed", i)
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := mx.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	alloc := int64(m1.TotalAlloc - m0.TotalAlloc)
	st := mx.Stats()
	if st.Points != n+inserts-deletes || st.Delta != 0 || st.Tombstones != 0 {
		t.Fatalf("after Compact: %d points, delta %d, tombstones %d", st.Points, st.Delta, st.Tombstones)
	}
	arena := st.ArenaBytes
	retained := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(mx)
	t.Logf("arena %d B; one Compact allocated %d B (%.2f× arena); retained heap %d B (%.2f× arena)",
		arena, alloc, float64(alloc)/float64(arena), retained, float64(retained)/float64(arena))
	if budget := 5*arena/4 + 64<<10; retained > budget {
		t.Errorf("retained heap after Compact %d B exceeds 1.25 × arena + 64 KiB = %d B", retained, budget)
	}
	if budget := 4 * arena; alloc > budget {
		t.Errorf("one Compact allocated %d B, over 4 × arena = %d B", alloc, budget)
	}
}

// TestMappedOpenFraction pins the zero-copy open's latency contract: a
// mapped open validates the frame and adopts the file's sections in
// place (checksums wait for the first query), so it costs at most a
// tenth of a copying load of the same file, plain and sharded. The two
// sides alternate in one process and each keeps its fastest open, so
// the fraction does not depend on the host's speed.
func TestMappedOpenFraction(t *testing.T) {
	const n, shards, rounds, maxFraction = 100_000, 4, 5, 0.10
	dir := t.TempDir()
	pts := randGroup(rand.New(rand.NewSource(47)), n)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, shards, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	kinds := []struct {
		name       string
		path       string
		load, open func(string) (io.Closer, error)
	}{
		{"plain", writeSnapFile(t, dir, "plain.snap", ix.WriteSnapshotFile),
			func(p string) (io.Closer, error) { return gnn.OpenSnapshotFile(p) },
			func(p string) (io.Closer, error) { return gnn.OpenSnapshotMapped(p) }},
		{"sharded", writeSnapFile(t, dir, "sharded.snap", sx.WriteSnapshotFile),
			func(p string) (io.Closer, error) { return gnn.OpenShardedSnapshotFile(p) },
			func(p string) (io.Closer, error) { return gnn.OpenShardedSnapshotMapped(p) }},
	}
	timed := func(open func(string) (io.Closer, error), path string) time.Duration {
		start := time.Now()
		c, err := open(path)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	for _, k := range kinds {
		var load, open time.Duration
		for i := 0; i < rounds; i++ {
			l, o := timed(k.load, k.path), timed(k.open, k.path)
			if i == 0 || l < load {
				load = l
			}
			if i == 0 || o < open {
				open = o
			}
		}
		frac := float64(open) / float64(load)
		t.Logf("%s: mapped open %v, copying load %v, fraction %.4f", k.name, open, load, frac)
		if frac > maxFraction {
			t.Errorf("%s: mapped open is %.4f of the copying load, want ≤ %.2f", k.name, frac, maxFraction)
		}
	}
}

// liveHeap returns the heap bytes still reachable after full collection
// (two cycles also empty the scratch pools).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

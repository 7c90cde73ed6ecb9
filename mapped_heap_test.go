//go:build unix && !mmapfallback

package gnn_test

import (
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gnn"
	"gnn/internal/dataset"
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
// arena, so the retained heap afterwards is that arena and little else.
// What the cycle allocates on the way is TestBulkLoadArenaAllocs's
// plain-compaction row.
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
}

// TestBulkLoadArenaAllocs pins what a bulk load allocates against the
// arena it produces, on the four paths that build one from many points:
// a compaction of a mapped plain index and of a mapped 4-shard index
// (1,500 inserts and 500 deletes folded, snapshot rotation included),
// BuildIndex and the 4-shard BuildShardedIndex. Each load writes the
// points once, into the columns the new arena adopts, and orders them
// through two columns of radix words (a key image and a position each,
// 16 B a point). Each case is bounded at its reading when the loader
// took that shape (1.78×, 1.79×, 1.65× and 1.65× the arena) plus 0.05×;
// staging the points point-major first, or a third working column,
// breaks the bound.
func TestBulkLoadArenaAllocs(t *testing.T) {
	const n, inserts, deletes, shards = 100_000, 1_500, 500, 4
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(43))
	pts := randGroup(rng, n)
	ins := randGroup(rng, inserts)

	// compaction maps the snapshot write makes, queues the writes and
	// measures the Compact that folds them.
	compaction := func(name string, write func(string) error, open func(string) (*gnn.Index, error)) func() (int64, int64) {
		return func() (int64, int64) {
			ix, err := open(writeSnapFile(t, dir, name+".snap", write))
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			err = ix.StartCompactor(gnn.CompactorConfig{Threshold: math.MaxInt, Interval: time.Hour,
				Path: filepath.Join(dir, name+"-rotated.snap")})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range ins {
				if err := ix.Insert(p, int64(n+i)); err != nil {
					t.Fatal(err)
				}
			}
			for i, p := range pts[:deletes] {
				if !ix.Delete(p, int64(i)) {
					t.Fatalf("delete of base point %d failed", i)
				}
			}
			alloc := allocated(func() { err = ix.Compact() })
			st := ix.Stats()
			if err != nil || st.Points != n+inserts-deletes || st.Delta != 0 || st.Tombstones != 0 {
				t.Fatalf("Compact: %d points, delta %d, tombstones %d, err %v", st.Points, st.Delta, st.Tombstones, err)
			}
			return alloc, st.ArenaBytes
		}
	}
	plain, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := gnn.BuildShardedIndex(pts, nil, shards, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	for _, c := range []struct {
		name     string
		maxRatio float64
		load     func() (alloc, arena int64)
	}{
		{"compact", 1.83, compaction("plain", plain.WriteSnapshotFile,
			func(p string) (*gnn.Index, error) { return gnn.OpenSnapshotMapped(p) })},
		{"compact-sharded", 1.84, compaction("sharded", sharded.WriteSnapshotFile,
			func(p string) (*gnn.Index, error) { return gnn.OpenShardedSnapshotMapped(p) })},
		{"BuildIndex", 1.70, func() (int64, int64) {
			var ix *gnn.Index
			alloc := allocated(func() { ix, err = gnn.BuildIndex(pts, nil, gnn.IndexConfig{}) })
			if err != nil {
				t.Fatal(err)
			}
			return alloc, ix.Stats().ArenaBytes
		}},
		{"BuildShardedIndex", 1.70, func() (int64, int64) {
			var sx *gnn.Index
			alloc := allocated(func() { sx, err = gnn.BuildShardedIndex(pts, nil, shards, gnn.IndexConfig{}) })
			if err != nil {
				t.Fatal(err)
			}
			defer sx.Close()
			return alloc, sx.Stats().ArenaBytes
		}},
	} {
		alloc, arena := c.load()
		t.Logf("%s: arena %d B, allocated %d B (%.2f× arena)", c.name, arena, alloc, float64(alloc)/float64(arena))
		if float64(alloc) > c.maxRatio*float64(arena) {
			t.Errorf("%s allocated %d B, over %.2f × its %d B arena", c.name, alloc, c.maxRatio, arena)
		}
	}
}

// TestHeapOpenAllocs pins what a heap open allocates against the file it
// reads: OpenSnapshotFile on a plain and a 4-shard snapshot and
// OpenSnapshot on an *os.File, each on a snapshot of the 194,971 2-D
// points of TS. Each reads the file once, at its exact size, into the
// buffer whose columns the arenas adopt, so it allocates at most 1.1×
// the file; the rest is the structure check's slot bitmaps and page map.
// A second copy of the columns, or a read buffer that grows by doubling,
// breaks the bound.
func TestHeapOpenAllocs(t *testing.T) {
	const shards, maxRatio = 4, 1.1
	dir := t.TempDir()
	ts := dataset.GenerateTS(1)
	pts := make([]gnn.Point, len(ts.Points))
	for i, p := range ts.Points {
		pts[i] = gnn.Point(p)
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, shards, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plain := writeSnapFile(t, dir, "ts.snap", ix.WriteSnapshotFile)
	sharded := writeSnapFile(t, dir, "ts-sharded.snap", sx.WriteSnapshotFile)
	sx.Close()
	ix, sx = nil, nil

	for _, c := range []struct {
		name, path string
		open       func(string) (*gnn.Index, error)
	}{
		{"OpenSnapshotFile", plain, func(p string) (*gnn.Index, error) { return gnn.OpenSnapshotFile(p) }},
		{"OpenSnapshotFile/sharded", sharded, func(p string) (*gnn.Index, error) { return gnn.OpenSnapshotFile(p) }},
		{"OpenSnapshot", plain, func(p string) (*gnn.Index, error) {
			f, err := os.Open(p)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return gnn.OpenSnapshot(f)
		}},
	} {
		fi, err := os.Stat(c.path)
		if err != nil {
			t.Fatal(err)
		}
		var x *gnn.Index
		alloc := allocated(func() { x, err = c.open(c.path) })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if x.Len() != len(pts) {
			t.Fatalf("%s: %d points, want %d", c.name, x.Len(), len(pts))
		}
		x.Close()
		ratio := float64(alloc) / float64(fi.Size())
		t.Logf("%s: file %d B, allocated %d B (%.2f× the file)", c.name, fi.Size(), alloc, ratio)
		if ratio > maxRatio {
			t.Errorf("%s allocated %d B, over %.1f × its %d B file", c.name, alloc, maxRatio, fi.Size())
		}
	}
}

// allocated returns the bytes run allocates.
func allocated(run func()) int64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc - m0.TotalAlloc)
}

// TestMappedOpenFraction pins the zero-copy open's latency contract: a
// mapped open validates the frame and adopts the file's sections in
// place (the column checksums wait for the first query), so it costs at
// most a tenth of a heap load of the same file, which reads it, adopts
// it and verifies it, plain and sharded. The two sides alternate in one
// process and each keeps its fastest open, so the fraction does not
// depend on the host's speed.
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
			func(p string) (io.Closer, error) { return gnn.OpenSnapshotFile(p) },
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
		t.Logf("%s: mapped open %v, heap load %v, fraction %.4f", k.name, open, load, frac)
		if frac > maxFraction {
			t.Errorf("%s: mapped open is %.4f of the heap load, want ≤ %.2f", k.name, frac, maxFraction)
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

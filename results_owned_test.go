package gnn_test

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"gnn"
	"gnn/internal/dataset"
	"gnn/internal/snapshot"
)

// resultBits is a result in bit-exact form, detached from its Point.
type resultBits struct {
	id   int64
	dist uint64
	pt   [2]uint64
}

func toBits(res []gnn.Result) []resultBits {
	out := make([]resultBits, len(res))
	for i, r := range res {
		out[i] = resultBits{id: r.ID, dist: math.Float64bits(r.Dist),
			pt: [2]uint64{math.Float64bits(r.Point[0]), math.Float64bits(r.Point[1])}}
	}
	return out
}

// scribble overwrites every returned point in place.
func scribble(res []gnn.Result) {
	for _, r := range res {
		for a := range r.Point {
			r.Point[a] = -1e300
		}
	}
}

// TestMappedResultPointsOwned checks that callers own the points they
// get back: every point returned by GroupNN (each algorithm),
// NearestNeighbors and GroupNNIterator is overwritten, and a repeat of
// every query must still answer bit for bit as before — on a built, a
// mapped, a sharded, a mapped sharded and a written-to (overlay) index.
func TestMappedResultPointsOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := randGroup(rng, 3000)
	cfg := gnn.IndexConfig{NodeCapacity: 12}
	dir := t.TempDir()
	built, err := gnn.BuildIndex(pts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := gnn.OpenSnapshotMapped(writeSnapFile(t, dir, "ix.snap", built.WriteSnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	sharded, err := gnn.BuildShardedIndex(pts, nil, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shardedMapped, err := gnn.OpenShardedSnapshotMapped(writeSnapFile(t, dir, "sx.snap", sharded.WriteSnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	defer shardedMapped.Close()
	written, err := gnn.BuildIndex(pts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Enough inserts to fold a delta tree and leave a pending tail, plus
	// tombstones on the base.
	for i := 0; i < 300; i++ {
		if err := written.Insert(gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}, int64(10_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if !written.Delete(pts[i*7], int64(i*7)) {
			t.Fatalf("delete %d missed", i*7)
		}
	}

	groups := make([][]gnn.Point, 8)
	for i := range groups {
		groups[i] = queryGroup(rng, 2+i%5, 1000)
	}
	algos := [][]gnn.QueryOption{
		{gnn.WithAlgorithm(gnn.AlgoMBM)},
		{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst()},
		{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist)},
		{gnn.WithAlgorithm(gnn.AlgoSPM)},
		{gnn.WithAlgorithm(gnn.AlgoMQM)},
		{gnn.WithAlgorithm(gnn.AlgoBruteForce)},
	}
	// answers runs every query once, returning the answers in bit form
	// and scribbling over every returned point afterwards.
	answers := func(t *testing.T, q *gnn.Index) [][]resultBits {
		t.Helper()
		var out [][]resultBits
		keep := func(res []gnn.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, toBits(res))
			scribble(res)
		}
		for _, g := range groups {
			for _, opts := range algos {
				keep(q.GroupNN(g, append([]gnn.QueryOption{gnn.WithK(6)}, opts...)...))
			}
			if q.Stats().Shards == 0 { // point-NN needs one arena
				keep(q.NearestNeighbors(g[0], 6))
			}
			it, err := q.GroupNNIterator(g)
			if err != nil {
				t.Fatal(err)
			}
			var res []gnn.Result
			for len(res) < 6 {
				r, ok := it.Next()
				if !ok {
					break
				}
				res = append(res, r)
			}
			it.Close()
			keep(res, nil)
		}
		return out
	}
	for name, q := range map[string]*gnn.Index{
		"built": built, "mapped": mapped, "sharded": sharded,
		"sharded-mapped": shardedMapped, "writes": written,
	} {
		t.Run(name, func(t *testing.T) {
			first := answers(t, q)
			again := answers(t, q)
			for i := range first {
				if len(first[i]) != len(again[i]) {
					t.Fatalf("answer %d: %d results, then %d", i, len(first[i]), len(again[i]))
				}
				for j := range first[i] {
					if first[i][j] != again[i][j] {
						t.Fatalf("answer %d result %d changed after the caller wrote to its points: %+v -> %+v",
							i, j, first[i][j], again[i][j])
					}
				}
			}
		})
	}
}

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHugeKAllocatesByResults pins result buffers to what they hold: a
// k of 1<<24 on a 4-point index must answer with the 4 points while
// allocating under 1 MB, on plain, sharded and mapped indexes, for every
// algorithm, the batch engine and point-NN (buffers sized by k would ask
// for ~640 MB). The pools are flushed before each query, so no buffer a
// previous query grew can hide the allocation.
func TestHugeKAllocatesByResults(t *testing.T) {
	const k, budget = 1 << 24, 1 << 20
	pts := []gnn.Point{{1, 2}, {3, 1}, {4, 4}, {2, 5}}
	cfg := gnn.IndexConfig{NodeCapacity: 4}
	dir := t.TempDir()
	plain, err := gnn.BuildIndex(pts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := gnn.BuildShardedIndex(pts, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := gnn.OpenSnapshotMapped(writeSnapFile(t, dir, "ix.snap", plain.WriteSnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	shardedMapped, err := gnn.OpenShardedSnapshotMapped(writeSnapFile(t, dir, "sx.snap", sharded.WriteSnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	defer shardedMapped.Close()

	group := []gnn.Point{{2, 2}, {3, 3}}
	measure := func(t *testing.T, what string, query func() ([]gnn.Result, error)) {
		t.Helper()
		if _, err := query(); err != nil { // warm one-time set-up (pooled scratch, verification)
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC() // two cycles empty the scratch pools
		var res []gnn.Result
		n := allocBytes(func() { res, err = query() })
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(res) != len(pts) {
			t.Fatalf("%s: %d results, want min(k, live) = %d", what, len(res), len(pts))
		}
		if n >= budget {
			t.Fatalf("%s with k = %d allocated %d bytes, budget %d", what, k, n, budget)
		}
	}
	for name, q := range map[string]*gnn.Index{
		"plain": plain, "sharded": sharded, "mapped": mapped, "sharded-mapped": shardedMapped,
	} {
		t.Run(name, func(t *testing.T) {
			for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoSPM, gnn.AlgoMQM, gnn.AlgoBruteForce} {
				opts := []gnn.QueryOption{gnn.WithK(k), gnn.WithAlgorithm(algo)}
				measure(t, algo.String(), func() ([]gnn.Result, error) { return q.GroupNN(group, opts...) })
			}
			measure(t, "MBM depth-first", func() ([]gnn.Result, error) {
				return q.GroupNN(group, gnn.WithK(k), gnn.WithDepthFirst())
			})
			measure(t, "batch", func() ([]gnn.Result, error) {
				b := q.GroupNNBatch([][]gnn.Point{group}, gnn.WithK(k))
				return b[0].Results, b[0].Err
			})
			if q.Stats().Shards == 0 { // point-NN needs one arena
				measure(t, "NearestNeighbors", func() ([]gnn.Result, error) { return q.NearestNeighbors(group[0], k) })
			}
		})
	}
}

// TestStatsArenaBytesCountsArenaOnly: ArenaBytes is exactly the column
// payload a snapshot serialises — the arena holds no other copy of the
// points — on built and mapped indexes, pinned for the paper's TS set.
func TestStatsArenaBytesCountsArenaOnly(t *testing.T) {
	d := dataset.GenerateTS(1)
	pts := make([]gnn.Point, len(d.Points))
	for i, p := range d.Points {
		pts[i] = gnn.Point(p)
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapFile(t, t.TempDir(), "ts.snap", ix.WriteSnapshotFile)
	mapped, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	const tsArenaBytes = 4_902_204
	want := snapshotColumnBytes(t, path)
	if want != tsArenaBytes {
		t.Fatalf("TS snapshot columns hold %d bytes, want %d", want, tsArenaBytes)
	}
	if got := ix.Stats().ArenaBytes; got != want {
		t.Fatalf("built Stats().ArenaBytes = %d, want the %d column bytes", got, want)
	}
	if got := mapped.Stats().ArenaBytes; got != want {
		t.Fatalf("mapped Stats().ArenaBytes = %d, want the %d column bytes", got, want)
	}
}

// snapshotColumnBytes sums the column payloads of a snapshot file's trees.
func snapshotColumnBytes(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.DecodeAdopted(data)
	if err == nil {
		err = a.Verify()
	}
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, st := range a.Trees {
		n += int64(4*len(st.Level) + 8*len(st.Page) + 4*len(st.Start) + 4*len(st.End) + 4*len(st.Child) + 8*len(st.IDs))
		for a := range st.PointCols {
			n += int64(8 * (len(st.RectLo[a]) + len(st.RectHi[a]) + len(st.PointCols[a])))
		}
	}
	return n
}

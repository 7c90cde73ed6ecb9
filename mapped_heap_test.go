//go:build unix && !mmapfallback

package gnn_test

import (
	"math/rand"
	"runtime"
	"testing"

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

// liveHeap returns the heap bytes still reachable after full collection
// (two cycles also empty the scratch pools).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

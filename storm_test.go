package gnn_test

// Read/write storms: concurrent queries, iterators, inserts, deletes,
// Compact, and background compaction on one index, run under -race in CI.
// The contracts: zero failed queries, every query result internally
// consistent (a snapshot of SOME published view), final Len equal to the
// serial expectation, and invariants intact afterwards.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"gnn"
)

// TestPackRaceRegression: Compact publishes a fresh packed base under
// live readers; concurrent queries must never error or observe a
// half-built base.
func TestPackRaceRegression(t *testing.T) {
	pts, groups, _ := overlayFixture(t, 2000, 91)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Seed an overlay so the first Compact has real folding work.
	for i := 0; i < 50; i++ {
		if err := ix.Insert(gnn.Point{float64(i), float64(i)}, int64(50_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ix.GroupNN(groups[0], gnn.WithK(5))
	if err != nil {
		t.Fatal(err)
	}

	var fails atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := ix.GroupNN(groups[0], gnn.WithK(5))
				if err != nil || len(got) != len(want) {
					fails.Add(1)
					return
				}
				// The live multiset never changes across compactions, so
				// results must be identical throughout.
				for i := range got {
					if got[i].ID != want[i].ID {
						fails.Add(1)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := ix.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := fails.Load(); n != 0 {
		t.Fatalf("%d readers failed or diverged during concurrent Compact", n)
	}
	if s := ix.Stats(); !s.Packed || s.Delta != 0 {
		t.Fatalf("index not packed and folded: %+v", s)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// runStorm drives nWriters mutator goroutines (disjoint id ranges, so
// the final live count is exact) against nReaders query goroutines.
func runStorm(t *testing.T, mutate func(w, i int) bool, query func(r int) error, nWriters, nReaders, perWriter int) {
	t.Helper()
	var qerrs atomic.Int64
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := query(r); err != nil {
					qerrs.Add(1)
					return
				}
			}
		}(r)
	}
	var wgw sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		wgw.Add(1)
		go func(w int) {
			defer wgw.Done()
			for i := 0; i < perWriter; i++ {
				if !mutate(w, i) {
					return
				}
			}
		}(w)
	}
	wgw.Wait()
	close(stop)
	rg.Wait()
	if n := qerrs.Load(); n != 0 {
		t.Fatalf("%d queries failed during storm", n)
	}
}

// TestReadWriteStormPlain: mixed insert/delete traffic with a background
// compactor on a small threshold, plus synchronous Compact thrown in
// from the writers, while readers run queries, NN lookups, and
// iterators. Zero query failures; exact final Len.
func TestReadWriteStormPlain(t *testing.T) {
	pts, groups, _ := overlayFixture(t, 1000, 92)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.StartCompactor(gnn.CompactorConfig{Threshold: 64}); err != nil {
		t.Fatal(err)
	}
	const nWriters, perWriter = 4, 150
	mutate := func(w, i int) bool {
		id := int64(10_000 + w*perWriter + i)
		p := gnn.Point{float64(id%97) + 0.5, float64(id%89) + 0.25}
		if err := ix.Insert(p, id); err != nil {
			t.Errorf("insert %d: %v", id, err)
			return false
		}
		switch i % 10 {
		case 3:
			// Delete the point this writer just inserted: net zero.
			if !ix.Delete(p, id) {
				t.Errorf("delete %d failed", id)
				return false
			}
			if err := ix.Insert(p, id); err != nil {
				t.Errorf("reinsert %d: %v", id, err)
				return false
			}
		case 7, 9:
			if err := ix.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return false
			}
		}
		return true
	}
	query := func(r int) error {
		switch r % 3 {
		case 0:
			_, err := ix.GroupNN(groups[r%len(groups)], gnn.WithK(4))
			return err
		case 1:
			_, err := ix.NearestNeighbors(gnn.Point{50, 50}, 3)
			return err
		default:
			it, err := ix.GroupNNIterator(groups[r%len(groups)])
			if err != nil {
				return err
			}
			defer it.Close()
			for i := 0; i < 8; i++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			return nil
		}
	}
	runStorm(t, mutate, query, nWriters, 6, perWriter)
	ix.StopCompactor()
	if got, want := ix.Len(), 1000+nWriters*perWriter; got != want {
		t.Fatalf("final Len %d, want %d", got, want)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Graceful degradation left no backlog the compactor can't clear.
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if s := ix.Stats(); s.Delta != 0 || s.Tombstones != 0 {
		t.Fatalf("overlay not drained after final compaction: %+v", s)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadWriteStormSharded: the same storm against the sharded index.
func TestReadWriteStormSharded(t *testing.T) {
	pts, groups, _ := overlayFixture(t, 1000, 93)
	sx, err := gnn.BuildShardedIndex(pts, nil, 3, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.StartCompactor(gnn.CompactorConfig{Threshold: 64}); err != nil {
		t.Fatal(err)
	}
	const nWriters, perWriter = 4, 100
	mutate := func(w, i int) bool {
		id := int64(20_000 + w*perWriter + i)
		p := gnn.Point{float64(id%97) + 0.5, float64(id%89) + 0.25}
		if err := sx.Insert(p, id); err != nil {
			t.Errorf("insert %d: %v", id, err)
			return false
		}
		switch i % 10 {
		case 3:
			if !sx.Delete(p, id) {
				t.Errorf("delete %d failed", id)
				return false
			}
			if err := sx.Insert(p, id); err != nil {
				t.Errorf("reinsert %d: %v", id, err)
				return false
			}
		case 7:
			if err := sx.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return false
			}
		}
		return true
	}
	query := func(r int) error {
		if r%2 == 0 {
			_, err := sx.GroupNN(groups[r%len(groups)], gnn.WithK(4))
			return err
		}
		it, err := sx.GroupNNIterator(groups[r%len(groups)])
		if err != nil {
			return err
		}
		defer it.Close()
		for i := 0; i < 8; i++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		return nil
	}
	runStorm(t, mutate, query, nWriters, 6, perWriter)
	sx.StopCompactor()
	if got, want := sx.Len(), 1000+nWriters*perWriter; got != want {
		t.Fatalf("final Len %d, want %d", got, want)
	}
	if err := sx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := sx.Compact(); err != nil {
		t.Fatal(err)
	}
	if s := sx.Stats(); s.Delta != 0 || s.Tombstones != 0 {
		t.Fatalf("overlay not drained after final compaction: %+v", s)
	}
	if err := sx.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringCompaction: Close must wait for the in-flight cycle
// (the rebuild reads the base the drain protects) and leave no goroutine
// behind. Loop a few times to give the race detector material.
func TestCloseDuringCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for round := 0; round < 5; round++ {
		pts := make([]gnn.Point, 500)
		for i := range pts {
			pts[i] = gnn.Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.StartCompactor(gnn.CompactorConfig{Threshold: 4}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if err := ix.Insert(gnn.Point{rng.Float64() * 100, rng.Float64() * 100}, int64(30_000+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		// Close on a heap index stops the compactor but keeps the index
		// usable (only mapped indexes tear down their arena). Writes and
		// manual compaction still work; no background goroutine remains.
		if err := ix.Insert(gnn.Point{1, 1}, int64(40_000+round)); err != nil {
			t.Fatalf("insert after Close on heap index: %v", err)
		}
		if err := ix.Compact(); err != nil {
			t.Fatalf("compact after Close on heap index: %v", err)
		}
	}
}

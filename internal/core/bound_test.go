package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gnn/internal/geom"
)

// sharedBound returns the fresh bound of a one-point query's Share.
func sharedBound(t *testing.T) *SharedBound {
	t.Helper()
	b, err := new(ExecContext).Share([]geom.Point{{0, 0}}, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSharedBoundMonotonic hammers one bound from many goroutines and
// checks it converges to the global minimum and never rises.
func TestSharedBoundMonotonic(t *testing.T) {
	b := sharedBound(t)
	if !math.IsInf(b.Load(), 1) {
		t.Fatalf("fresh bound is %v, want +Inf", b.Load())
	}
	const goroutines = 8
	const perG = 2000
	min := math.Inf(1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			local := math.Inf(1)
			for i := 0; i < perG; i++ {
				v := rng.Float64() * 1000
				b.Tighten(v)
				if v < local {
					local = v
				}
				if got := b.Load(); got > local {
					t.Errorf("bound %v above this goroutine's minimum %v", got, local)
					return
				}
			}
			mu.Lock()
			if local < min {
				min = local
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if got := b.Load(); got != min {
		t.Fatalf("bound settled at %v, want global minimum %v", got, min)
	}
	b.Tighten(min + 1)
	if got := b.Load(); got != min {
		t.Fatalf("Tighten with a larger value moved the bound to %v", got)
	}
}

// TestMergeNeighbors checks the gather half: ascending k-way merge with
// kbest's ID-dedup and tie semantics.
func TestMergeNeighbors(t *testing.T) {
	gn := func(id int64, d float64) GroupNeighbor {
		return GroupNeighbor{Point: geom.Point{d, 0}, ID: id, Dist: d}
	}
	got := MergeNeighbors(3, [][]GroupNeighbor{
		{gn(1, 1), gn(4, 4)},
		{gn(2, 2), gn(5, 5)},
		{gn(3, 3)},
	})
	if len(got) != 3 || got[0].ID != 1 || got[1].ID != 2 || got[2].ID != 3 {
		t.Fatalf("merge picked %+v", got)
	}

	// Duplicate IDs collapse (first in ascending order wins), like a
	// single traversal's kbest.
	got = MergeNeighbors(2, [][]GroupNeighbor{
		{gn(7, 1), gn(8, 3)},
		{gn(7, 1), gn(9, 2)},
	})
	if len(got) != 2 || got[0].ID != 7 || got[1].ID != 9 {
		t.Fatalf("dedup merge picked %+v", got)
	}

	// Ties across lists resolve to the earlier list, deterministically.
	got = MergeNeighbors(1, [][]GroupNeighbor{
		{gn(11, 5)},
		{gn(10, 5)},
	})
	if len(got) != 1 || got[0].ID != 11 {
		t.Fatalf("tie merge picked %+v", got)
	}

	// Fewer candidates than k, empty lists included.
	got = MergeNeighbors(9, [][]GroupNeighbor{nil, {gn(1, 1)}, {}})
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("short merge picked %+v", got)
	}
	if got := MergeNeighbors(3, nil); len(got) != 0 {
		t.Fatalf("empty merge returned %+v", got)
	}
}

// TestKBestSharedPublishes checks the kernel-facing half: a kbest coupled
// to a bound publishes its k-th best once full and folds a foreign
// tighter bound into its pruning radius.
func TestKBestSharedPublishes(t *testing.T) {
	b := sharedBound(t)
	best := newKBest(2)
	best.shared = b
	gn := func(id int64, d float64) GroupNeighbor { return GroupNeighbor{ID: id, Dist: d} }
	best.offer(gn(1, 10))
	if !math.IsInf(b.Load(), 1) {
		t.Fatalf("bound published before k results: %v", b.Load())
	}
	if best.bound() != math.Inf(1) {
		t.Fatalf("bound() = %v before k results", best.bound())
	}
	best.offer(gn(2, 20))
	if b.Load() != 20 {
		t.Fatalf("bound not published on fill: %v", b.Load())
	}
	best.offer(gn(3, 15))
	if b.Load() != 15 {
		t.Fatalf("bound not republished on improvement: %v", b.Load())
	}
	// A foreign shard tightens further: pruning uses the foreign value.
	b.Tighten(7)
	if best.bound() != 7 {
		t.Fatalf("bound() = %v, want the foreign 7", best.bound())
	}
	// The local list is unaffected by the foreign bound.
	if res := best.results(); len(res) != 2 || res[0].ID != 1 || res[1].ID != 3 {
		t.Fatalf("results %+v", res)
	}
}

package pagestore

import (
	"math/rand"
	"sync"
	"testing"
)

func TestAccountantNoBuffer(t *testing.T) {
	a := NewAccountant(0)
	var tk CostTracker
	for i := 0; i < 5; i++ {
		if hit := a.Access(PageID(i%2), &tk); hit {
			t.Fatal("hit without buffer")
		}
	}
	if a.Logical() != 5 || a.Physical() != 5 || a.Hits() != 0 {
		t.Fatalf("aggregate = %d/%d/%d", a.Logical(), a.Physical(), a.Hits())
	}
	if tk.Logical != 5 || tk.Physical != 5 || tk.Hits != 0 {
		t.Fatalf("tracker = %d/%d/%d", tk.Logical, tk.Physical, tk.Hits)
	}
	a.Reset()
	if a.Logical() != 0 || a.Physical() != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestAccountantWithBuffer(t *testing.T) {
	a := NewAccountant(2)
	var tk CostTracker
	a.Access(1, &tk) // miss
	a.Access(1, &tk) // hit
	a.Access(2, &tk) // miss
	a.Access(1, &tk) // hit
	a.Access(3, &tk) // miss, evicts 2 (LRU)
	a.Access(2, &tk) // miss again
	if a.Logical() != 6 || a.Physical() != 4 || a.Hits() != 2 {
		t.Fatalf("aggregate = %d/%d/%d, want 6/4/2", a.Logical(), a.Physical(), a.Hits())
	}
	if tk.Logical != 6 || tk.Physical != 4 || tk.Hits != 2 {
		t.Fatalf("tracker = %d/%d/%d, want 6/4/2", tk.Logical, tk.Physical, tk.Hits)
	}
}

func TestAccountantNilTracker(t *testing.T) {
	a := NewAccountant(0)
	a.Access(1, nil)
	if a.Logical() != 1 {
		t.Fatalf("aggregate logical = %d", a.Logical())
	}
}

func TestCostTrackerAdd(t *testing.T) {
	var x, y CostTracker
	x.record(false)
	y.record(false)
	y.record(true)
	x.Add(y)
	if x.Logical != 3 || x.Physical != 2 || x.Hits != 1 {
		t.Fatalf("Add result = %d/%d/%d", x.Logical, x.Physical, x.Hits)
	}
}

func TestResetAllClearsBuffer(t *testing.T) {
	a := NewAccountant(4)
	a.Access(1, nil)
	a.ResetAll()
	if hit := a.Access(1, nil); hit {
		t.Fatal("buffer survived ResetAll")
	}
}

// TestAccountantConcurrentSums is the core invariant of the per-query
// refactor: under arbitrary interleaving, every access increments exactly
// one of hit/miss on BOTH the aggregate and the caller's tracker, so the
// per-query trackers sum exactly to the aggregate.
func TestAccountantConcurrentSums(t *testing.T) {
	for _, bufferPages := range []int{0, 8} {
		a := NewAccountant(bufferPages)
		const workers, accesses = 8, 2000
		trackers := make([]CostTracker, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < accesses; i++ {
					a.Access(PageID(rng.Intn(32)), &trackers[w])
				}
			}(w)
		}
		wg.Wait()
		var sum CostTracker
		for i := range trackers {
			sum.Add(trackers[i])
		}
		if sum != a.Totals() {
			t.Fatalf("buffer=%d: tracker sum %+v != aggregate %+v", bufferPages, sum, a.Totals())
		}
		if sum.Logical != workers*accesses || sum.Physical+sum.Hits != sum.Logical {
			t.Fatalf("buffer=%d: inconsistent sum %+v", bufferPages, sum)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	l := NewLRU(3)
	for _, id := range []PageID{1, 2, 3} {
		if l.Access(id) {
			t.Fatalf("unexpected hit for %d", id)
		}
	}
	l.Access(1)      // 1 becomes MRU; order now 1,3,2
	if l.Access(4) { // evicts 2
		t.Fatal("4 should miss")
	}
	if contains(l, 2) {
		t.Fatal("2 should have been evicted")
	}
	for _, id := range []PageID{1, 3, 4} {
		if !contains(l, id) {
			t.Fatalf("%d should be buffered", id)
		}
	}
	if len(l.nodes) != 3 {
		t.Fatalf("%d pages buffered", len(l.nodes))
	}
}

func TestLRUSingleSlot(t *testing.T) {
	l := NewLRU(1)
	if l.Access(1) {
		t.Fatal("first access hit")
	}
	if !l.Access(1) {
		t.Fatal("repeat access missed")
	}
	l.Access(2)
	if contains(l, 1) {
		t.Fatal("capacity-1 buffer kept two pages")
	}
	if l.capacity != 1 {
		t.Fatal("capacity wrong")
	}
}

func TestLRUClear(t *testing.T) {
	l := NewLRU(2)
	l.Access(1)
	l.Access(2)
	l.Clear()
	if len(l.nodes) != 0 || contains(l, 1) {
		t.Fatal("Clear left entries")
	}
	if l.Access(1) {
		t.Fatal("hit after Clear")
	}
}

func TestLRUPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewLRU(0)
}

func TestLRUStress(t *testing.T) {
	// Differential test against a straightforward slice-based model.
	l := NewLRU(8)
	var model []PageID
	rng := rand.New(rand.NewSource(5))
	find := func(id PageID) int {
		for i, v := range model {
			if v == id {
				return i
			}
		}
		return -1
	}
	for i := 0; i < 5000; i++ {
		id := PageID(rng.Intn(20))
		wantHit := find(id) >= 0
		if got := l.Access(id); got != wantHit {
			t.Fatalf("step %d: Access(%d) = %v, want %v", i, id, got, wantHit)
		}
		if j := find(id); j >= 0 {
			model = append(model[:j], model[j+1:]...)
		}
		model = append([]PageID{id}, model...)
		if len(model) > 8 {
			model = model[:8]
		}
		if len(l.nodes) != len(model) {
			t.Fatalf("step %d: %d pages buffered vs model %d", i, len(l.nodes), len(model))
		}
	}
}

// contains reports whether the page is buffered, without touching
// recency.
func contains(l *LRU, id PageID) bool {
	_, ok := l.nodes[id]
	return ok
}

package pq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHeapBasic(t *testing.T) {
	h := &Heap[string]{}
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap returned ok")
	}
	if _, ok := peek(h); ok {
		t.Fatal("peek on empty heap returned ok")
	}
	h.Push("b", 2)
	h.Push("a", 1)
	h.Push("c", 3)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if p, ok := h.MinPriority(); !ok || p != 1 {
		t.Fatalf("MinPriority = %v %v", p, ok)
	}
	if it, ok := peek(h); !ok || it.Value != "a" {
		t.Fatalf("peek = %+v", it)
	}
	want := []string{"a", "b", "c"}
	for _, w := range want {
		it, ok := h.Pop()
		if !ok || it.Value != w {
			t.Fatalf("Pop = %+v, want %s", it, w)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

func TestHeapClear(t *testing.T) {
	h := &Heap[int]{}
	for i := 0; i < 10; i++ {
		h.Push(i, float64(i))
	}
	h.Clear()
	if h.Len() != 0 {
		t.Fatal("Clear left items")
	}
	h.Push(5, 5)
	if it, _ := h.Pop(); it.Value != 5 {
		t.Fatal("heap unusable after Clear")
	}
}

func TestHeapDuplicatePriorities(t *testing.T) {
	h := &Heap[int]{}
	for i := 0; i < 100; i++ {
		h.Push(i, 7)
	}
	seen := map[int]bool{}
	for h.Len() != 0 {
		it, _ := h.Pop()
		if it.Priority != 7 {
			t.Fatalf("priority changed: %v", it.Priority)
		}
		if seen[it.Value] {
			t.Fatalf("duplicate value %d", it.Value)
		}
		seen[it.Value] = true
	}
	if len(seen) != 100 {
		t.Fatalf("lost items: %d", len(seen))
	}
}

func TestQuickHeapSortsAnyInput(t *testing.T) {
	f := func(priorities []float64) bool {
		// Sanitise: replace NaN (unorderable) with 0.
		for i, p := range priorities {
			if p != p {
				priorities[i] = 0
			}
		}
		h := &Heap[int]{}
		for i, p := range priorities {
			h.Push(i, p)
		}
		prev := 0.0
		first := true
		count := 0
		for h.Len() != 0 {
			it, _ := h.Pop()
			if !first && it.Priority < prev {
				return false
			}
			prev, first = it.Priority, false
			count++
		}
		return count == len(priorities)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	h := &Heap[int]{items: make([]Item[int], 0, b.N)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		h.Push(i, rng.Float64())
	}
	for i := 0; i < b.N; i++ {
		h.Pop()
	}
}

// TestHeapReset: a Reset heap behaves like a fresh one and reuses its
// backing array.
func TestHeapReset(t *testing.T) {
	h := &Heap[int]{}
	for i := 0; i < 20; i++ {
		h.Push(i, float64(20-i))
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Reset heap not empty: len=%d", h.Len())
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop from reset heap succeeded")
	}
	h.Push(1, 2.0)
	h.Push(2, 1.0)
	if it, ok := h.Pop(); !ok || it.Value != 2 {
		t.Fatalf("reset heap misordered: %+v ok=%v", it, ok)
	}
}

func TestPool(t *testing.T) {
	built := 0
	p := NewPool(func() *Heap[int] {
		built++
		return &Heap[int]{}
	})
	h := p.Get()
	if built != 1 {
		t.Fatalf("constructor ran %d times", built)
	}
	h.Push(7, 7)
	h.Reset()
	p.Put(h)
	_ = p.Get() // either the recycled heap or a fresh one; both must be empty
	p.Put(nil)  // must not panic or poison the pool
	if got := p.Get(); got == nil || got.Len() != 0 {
		t.Fatalf("pool returned unusable heap: %+v", got)
	}
}

// peek returns the minimum item without removing it; ok is false when
// the heap is empty.
func peek[T any](h *Heap[T]) (Item[T], bool) {
	if h.Len() == 0 {
		return Item[T]{}, false
	}
	return h.items[0], true
}

// Package pq provides small generic binary min-heaps keyed by float64
// priorities. They back every best-first traversal in the library: the
// incremental NN search of [HS99], the incremental closest-pair search of
// [HS98] and the round-robin scheduling inside MQM.
//
// The zero value of Heap is ready to use.
package pq

// Item pairs a payload with its priority.
type Item[T any] struct {
	Value    T
	Priority float64
}

// Heap is a binary min-heap ordered by Item.Priority. Ties are broken
// arbitrarily. Not safe for concurrent use.
type Heap[T any] struct {
	items []Item[T]
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts value with the given priority.
func (h *Heap[T]) Push(value T, priority float64) {
	h.items = append(h.items, Item[T]{Value: value, Priority: priority})
	h.up(len(h.items) - 1)
}

// MinPriority returns the priority of the minimum item, or +Inf semantics
// are left to the caller: ok is false when empty.
func (h *Heap[T]) MinPriority() (float64, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].Priority, true
}

// Pop removes and returns the minimum item. ok is false when the heap is
// empty.
func (h *Heap[T]) Pop() (item Item[T], ok bool) {
	if len(h.items) == 0 {
		return Item[T]{}, false
	}
	min := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = Item[T]{} // release payload for GC
	h.items = h.items[:last]
	if len(h.items) > 0 {
		h.down(0)
	}
	return min, true
}

// Items exposes the queued items in heap order — NOT priority order —
// as a read-only view of the backing array. It exists for diagnostics
// that classify the surviving entries of a finished traversal (the
// explain trace's pruning census) without paying a destructive pop-all:
// callers must not mutate the slice and must not hold it across a
// Push/Pop/Reset.
func (h *Heap[T]) Items() []Item[T] { return h.items }

// Clear removes all items, retaining capacity.
func (h *Heap[T]) Clear() {
	for i := range h.items {
		h.items[i] = Item[T]{}
	}
	h.items = h.items[:0]
}

// Reset prepares the heap for reuse by a new query: all items are dropped
// (payloads zeroed for GC) while the backing array is retained, so a warm
// heap serves its next query without allocating.
func (h *Heap[T]) Reset() { h.Clear() }

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Priority <= h.items[i].Priority {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.items[l].Priority < h.items[smallest].Priority {
			smallest = l
		}
		if r < n && h.items[r].Priority < h.items[smallest].Priority {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

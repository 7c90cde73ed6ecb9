package pq

import "testing"

// TestBoundedMaxGrowsWithHeld: a bounded heap's backing array follows
// the entries it retains, not k, and Max reports the entry a push into
// the full heap evicts.
func TestBoundedMaxGrowsWithHeld(t *testing.T) {
	b := NewBoundedMax[int](1 << 24)
	for i := 0; i < 5; i++ {
		b.Push(i, float64(i))
	}
	if c := cap(b.items); c > 16 {
		t.Fatalf("k = 1<<24 with 5 entries: capacity %d", c)
	}
	if top, ok := b.Max(); !ok || top.Value != 4 {
		t.Fatalf("Max = %v, %v; want 4", top, ok)
	}
	b.Reset(3)
	if _, ok := b.Max(); ok {
		t.Fatal("Max on an empty heap reported an entry")
	}
	for _, v := range []int{5, 1, 4, 2} {
		b.Push(v, float64(v))
	}
	if top, _ := b.Max(); top.Value != 4 {
		t.Fatalf("full heap Max = %v, want 4", top.Value)
	}
	big := NewBoundedMax[int](2 * RetainCap)
	for i := 0; i < 2*RetainCap; i++ {
		big.Push(i, float64(i))
	}
	big.Reset(1)
	if cap(big.items) != 0 {
		t.Fatalf("Reset kept a %d-entry backing array above RetainCap", cap(big.items))
	}
}

// TestTrim keeps ordinary buffers for reuse and drops oversized ones.
func TestTrim(t *testing.T) {
	if s := Trim(make([]int, 5, 64)); len(s) != 0 || cap(s) != 64 {
		t.Fatalf("small buffer: len %d cap %d", len(s), cap(s))
	}
	if s := Trim(make([]int, 0, RetainCap+1)); s != nil {
		t.Fatalf("oversized buffer kept: cap %d", cap(s))
	}
}

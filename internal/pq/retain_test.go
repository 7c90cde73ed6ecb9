package pq

import "testing"

// TestTrim keeps ordinary buffers for reuse and drops oversized ones.
func TestTrim(t *testing.T) {
	if s := Trim(make([]int, 5, 64)); len(s) != 0 || cap(s) != 64 {
		t.Fatalf("small buffer: len %d cap %d", len(s), cap(s))
	}
	if s := Trim(make([]int, 0, RetainCap+1)); s != nil {
		t.Fatalf("oversized buffer kept: cap %d", cap(s))
	}
}

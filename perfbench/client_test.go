package main

import "testing"

// TestDriveStopsAtLimit checks that a window past its limit sends no more
// requests and reports only those it sent.
func TestDriveStopsAtLimit(t *testing.T) {
	ops := []op{{kind: opQuery}, {kind: opQuery}}
	if outs, _ := drive(newClient(), "http://127.0.0.1:1", ops, -1); len(outs) != 0 {
		t.Fatalf("drive past its limit sent %d requests, want 0", len(outs))
	}
}

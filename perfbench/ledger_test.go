package main

import (
	"math"
	"testing"
)

func TestSelfTimesSubtractTheLayerBelow(t *testing.T) {
	l := layerP50s{kernel: 900, query: 920, shardQuery: 950, explain: 930, handler: 1000, e2e: 1200}
	close := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

	index, shard, srv, wire, unaccounted := selfTimes(l, false)
	if index != 20 || shard != 30 || srv != 70 || wire != 200 {
		t.Fatalf("self times index=%v shard=%v server=%v wire=%v, want 20 30 70 200", index, shard, srv, wire)
	}
	// Plain chain: 900 + 20 + 70 + 200 = 1190 of 1200; the explain
	// premium (930 - 920) is what the layers leave unexplained.
	if !close(unaccounted, 10.0/1200) {
		t.Errorf("unaccounted = %v, want %v", unaccounted, 10.0/1200)
	}
	// Sharded chain adds the scatter/gather self time: 1220 of 1200.
	if _, _, _, _, u := selfTimes(l, true); !close(u, -20.0/1200) {
		t.Errorf("sharded unaccounted = %v, want %v", u, -20.0/1200)
	}
}

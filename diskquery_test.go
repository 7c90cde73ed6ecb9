package gnn_test

import (
	"math/rand"
	"reflect"
	"testing"

	"gnn"
)

// diskFixture builds a small index and a query point cloud for the
// disk-resident tests.
func diskFixture(t *testing.T, nData, nQuery int) (*gnn.Index, []gnn.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	pts := make([]gnn.Point, nData)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	qpts := make([]gnn.Point, nQuery)
	for i := range qpts {
		qpts[i] = gnn.Point{200 + rng.Float64()*400, 200 + rng.Float64()*400}
	}
	return ix, qpts
}

// TestDiskAutoThreshold covers both sides of the configurable F-MQM/F-MBM
// crossover: the same query set resolves to F-MQM when its block count is
// at or below the threshold and to F-MBM above it, and DiskAuto's results
// match the explicitly chosen algorithm's in both regimes.
func TestDiskAutoThreshold(t *testing.T) {
	ix, qpts := diskFixture(t, 2000, 600)
	// 600 points at 100 per block = 6 blocks.
	build := func(threshold int) *gnn.QuerySet {
		qs, err := gnn.NewQuerySet(qpts, gnn.QuerySetConfig{BlockPoints: 100, AutoBlockThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		if qs.Blocks() != 6 {
			t.Fatalf("fixture drifted: %d blocks, want 6", qs.Blocks())
		}
		return qs
	}

	below := build(6) // blocks == threshold → F-MQM
	if got := below.AutoAlgorithm(); got != gnn.DiskFMQM {
		t.Fatalf("6 blocks, threshold 6: auto resolved to %v, want F-MQM", got)
	}
	above := build(5) // blocks > threshold → F-MBM
	if got := above.AutoAlgorithm(); got != gnn.DiskFMBM {
		t.Fatalf("6 blocks, threshold 5: auto resolved to %v, want F-MBM", got)
	}
	// Negative threshold forces F-MBM even for tiny sets.
	forced, err := gnn.NewQuerySet(qpts[:50], gnn.QuerySetConfig{BlockPoints: 100, AutoBlockThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := forced.AutoAlgorithm(); got != gnn.DiskFMBM {
		t.Fatalf("negative threshold: auto resolved to %v, want F-MBM", got)
	}
	// Zero keeps the default crossover.
	def := build(0)
	if got := def.AutoAlgorithm(); got != gnn.DiskFMQM {
		t.Fatalf("default threshold with 6 blocks: auto resolved to %v, want F-MQM", got)
	}

	// End to end: DiskAuto must answer exactly like the algorithm it
	// resolves to, on both sides of the crossover.
	for _, tc := range []struct {
		name string
		qs   *gnn.QuerySet
		want gnn.DiskAlgorithm
	}{
		{"fmqm-side", below, gnn.DiskFMQM},
		{"fmbm-side", above, gnn.DiskFMBM},
	} {
		auto, err := ix.GroupNNFromSet(tc.qs, gnn.DiskAuto, gnn.WithK(3))
		if err != nil {
			t.Fatalf("%s auto: %v", tc.name, err)
		}
		explicit, err := ix.GroupNNFromSet(tc.qs, tc.want, gnn.WithK(3))
		if err != nil {
			t.Fatalf("%s explicit: %v", tc.name, err)
		}
		if !reflect.DeepEqual(auto, explicit) {
			t.Fatalf("%s: DiskAuto diverged from %v\nauto:     %v\nexplicit: %v",
				tc.name, tc.want, auto, explicit)
		}
	}
}

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

// TestDiskAutoThreshold covers both sides of the F-MQM/F-MBM crossover:
// a query set of 8 blocks resolves to F-MQM and one of 9 to F-MBM, and
// DiskAuto answers exactly like the algorithm it resolves to, cost
// included. Passing DiskFMBM runs F-MBM on a set DiskAuto sends to F-MQM.
func TestDiskAutoThreshold(t *testing.T) {
	ix, qpts := diskFixture(t, 2000, 900)
	build := func(pts []gnn.Point, blocks int) *gnn.QuerySet {
		qs, err := gnn.NewQuerySet(pts, gnn.QuerySetConfig{BlockPoints: 100})
		if err != nil {
			t.Fatal(err)
		}
		if qs.Blocks() != blocks {
			t.Fatalf("fixture drifted: %d blocks, want %d", qs.Blocks(), blocks)
		}
		return qs
	}
	for _, tc := range []struct {
		name string
		qs   *gnn.QuerySet
		want gnn.DiskAlgorithm
	}{
		{"fmqm-side", build(qpts[:800], 8), gnn.DiskFMQM},
		{"fmbm-side", build(qpts, 9), gnn.DiskFMBM},
	} {
		if got := tc.qs.AutoAlgorithm(); got != tc.want {
			t.Fatalf("%s: auto resolved to %v, want %v", tc.name, got, tc.want)
		}
		auto, ac, err := ix.GroupNNFromSetWithCost(tc.qs, gnn.DiskAuto, gnn.WithK(3))
		if err != nil {
			t.Fatalf("%s auto: %v", tc.name, err)
		}
		explicit, ec, err := ix.GroupNNFromSetWithCost(tc.qs, tc.want, gnn.WithK(3))
		if err != nil {
			t.Fatalf("%s explicit: %v", tc.name, err)
		}
		if !reflect.DeepEqual(auto, explicit) || ac != ec {
			t.Fatalf("%s: DiskAuto diverged from %v\nauto:     %v at %+v\nexplicit: %v at %+v",
				tc.name, tc.want, auto, ac, explicit, ec)
		}
	}
	// On one block DiskAuto runs F-MQM; DiskFMBM runs F-MBM, at another
	// cost.
	small := build(qpts[:50], 1)
	if small.AutoAlgorithm() != gnn.DiskFMQM {
		t.Fatalf("1 block: auto resolved to %v, want F-MQM", small.AutoAlgorithm())
	}
	_, fmqm, err := ix.GroupNNFromSetWithCost(small, gnn.DiskAuto, gnn.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	_, fmbm, err := ix.GroupNNFromSetWithCost(small, gnn.DiskFMBM, gnn.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if fmqm == fmbm {
		t.Fatalf("DiskFMBM and DiskAuto on one block both cost %+v: F-MBM did not run", fmbm)
	}
}

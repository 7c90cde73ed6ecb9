package core

import (
	"math/rand"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// TestPerQueryCostSumsToAggregate runs a serial paper-style workload
// through every memory-resident algorithm and checks the refactor's
// contract: the per-query CostTrackers sum exactly to the tree's aggregate
// accountant, and attaching a tracker changes neither the results nor the
// NA totals an untracked run reports.
func TestPerQueryCostSumsToAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := clusteredPts(rng, 3000, 1000)
	tr := buildTree(t, pts, 20)
	workload := make([][]geom.Point, 15)
	for i := range workload {
		workload[i] = randPts(rng, 16, 250)
	}

	algos := []struct {
		name string
		run  func(*rtree.Tree, []geom.Point, Options) ([]GroupNeighbor, error)
	}{
		{"MQM", MQM},
		{"SPM", SPM},
		{"MBM", MBM},
	}
	for _, a := range algos {
		// Untracked baseline totals.
		tr.Tree().Accountant().Reset()
		baseline := make([][]GroupNeighbor, len(workload))
		for i, qs := range workload {
			got, err := on(tr, a.run, qs, Options{K: 4})
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			baseline[i] = got
		}
		baselineNA := tr.Tree().Accountant().Totals()

		// Tracked rerun: per-query costs must sum to the aggregate delta,
		// which must equal the untracked totals.
		tr.Tree().Accountant().Reset()
		var sum pagestore.CostTracker
		for i, qs := range workload {
			var tk pagestore.CostTracker
			got, err := on(tr, a.run, qs, Options{K: 4, Cost: &tk})
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			if len(got) != len(baseline[i]) {
				t.Fatalf("%s query %d: %d results with tracker, %d without",
					a.name, i, len(got), len(baseline[i]))
			}
			for j := range got {
				if got[j].ID != baseline[i][j].ID || got[j].Dist != baseline[i][j].Dist {
					t.Fatalf("%s query %d rank %d: tracker changed the answer", a.name, i, j)
				}
			}
			sum.Add(tk)
		}
		if sum != tr.Tree().Accountant().Totals() {
			t.Fatalf("%s: per-query sum %+v != aggregate %+v", a.name, sum, tr.Tree().Accountant().Totals())
		}
		if sum != baselineNA {
			t.Fatalf("%s: tracked NA %+v != untracked NA %+v", a.name, sum, baselineNA)
		}
	}
}

// TestDiskReportCostMatchesAggregates checks the per-query cost of the
// disk-resident family: report.Cost must equal tree NA plus Q page reads.
func TestDiskReportCostMatchesAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	pts := clusteredPts(rng, 1500, 1000)
	qs := randPts(rng, 200, 400)
	tr := buildTreeIDs(t, pts)

	for _, algo := range []string{"F-MQM", "F-MBM"} {
		qacct := pagestore.NewAccountant(0)
		qf, err := NewQueryFile(qs, 40, qacct, 1<<41)
		if err != nil {
			t.Fatal(err)
		}
		tr.Tree().Accountant().Reset()
		var rep *DiskReport
		if algo == "F-MQM" {
			rep, err = diskOn(tr, FMQM, qf, DiskOptions{Options: Options{K: 3}})
		} else {
			rep, err = diskOn(tr, FMBM, qf, DiskOptions{Options: Options{K: 3}})
		}
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Tree().Accountant().Logical() + qacct.Logical()
		if rep.Cost.Logical != want || rep.Cost.Logical == 0 {
			t.Fatalf("%s: report cost %d, aggregates %d", algo, rep.Cost.Logical, want)
		}
	}

	// GCP: the report cost spans both trees.
	tq := buildTreeIDs(t, qs[:60])
	tr.Tree().Accountant().Reset()
	tq.Tree().Accountant().Reset()
	rep, err := GCP(tr, tq, GCPOptions{Options: Options{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Tree().Accountant().Logical() + tq.Tree().Accountant().Logical()
	if rep.Cost.Logical != want || rep.Cost.Logical == 0 {
		t.Fatalf("GCP: report cost %d, aggregates %d", rep.Cost.Logical, want)
	}
}

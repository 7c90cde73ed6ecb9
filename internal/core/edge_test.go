package core

import (
	"math/rand"
	"testing"

	"gnn/internal/geom"
)

// Exhaustion paths: k exceeding |P| must drain every stream/loop cleanly.
func TestDiskAlgorithmsKLargerThanDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	pts := randPts(rng, 12, 100)
	qs := randPts(rng, 30, 100)
	tp := buildTreeIDs(t, pts)
	tq := buildTreeIDs(t, qs)
	qf, _ := NewQueryFile(qs, 7, nil, 0)
	want, _ := BruteForcePoints(pts, qs, Options{K: 20})
	if len(want) != 12 {
		t.Fatalf("baseline has %d results", len(want))
	}

	rep, err := GCP(tp, tq, GCPOptions{Options: Options{K: 20}})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "GCP/k>|P|", rep.Neighbors, want)

	drep, err := diskOn(tp, FMQM, qf, DiskOptions{Options: Options{K: 20}})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "FMQM/k>|P|", drep.Neighbors, want)

	drep, err = diskOn(tp, FMBM, qf, DiskOptions{Options: Options{K: 20}})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "FMBM/k>|P|", drep.Neighbors, want)
}

func TestDiskAlgorithmsSingleDataPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pts := []geom.Point{{50, 50}}
	qs := randPts(rng, 25, 100)
	tp := buildTreeIDs(t, pts)
	tq := buildTreeIDs(t, qs)
	qf, _ := NewQueryFile(qs, 10, nil, 0)
	want := geom.SumDist(pts[0], qs)

	rep, err := GCP(tp, tq, GCPOptions{})
	if err != nil || len(rep.Neighbors) != 1 || !almostSame(rep.Neighbors[0].Dist, want) {
		t.Fatalf("GCP: %v %+v", err, rep)
	}
	drep, err := diskOn(tp, FMQM, qf, DiskOptions{})
	if err != nil || len(drep.Neighbors) != 1 || !almostSame(drep.Neighbors[0].Dist, want) {
		t.Fatalf("FMQM: %v %+v", err, drep)
	}
	drep, err = diskOn(tp, FMBM, qf, DiskOptions{})
	if err != nil || len(drep.Neighbors) != 1 || !almostSame(drep.Neighbors[0].Dist, want) {
		t.Fatalf("FMBM: %v %+v", err, drep)
	}
}

func almostSame(a, b float64) bool {
	d := a - b
	return d < 1e-6*(1+b) && d > -1e-6*(1+b)
}

// Duplicate data points must all be reportable as distinct results.
func TestDuplicateDataPointsAsResults(t *testing.T) {
	p := geom.Point{10, 10}
	tr := buildTree(t, []geom.Point{p, p, p, p, p, {90, 90}}, 4)
	qs := []geom.Point{{9, 9}, {11, 11}}
	for _, a := range memAlgos {
		got, err := on(tr, a.run, qs, Options{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("%s returned %d of 5 duplicates", a.name, len(got))
		}
		ids := map[int64]bool{}
		for _, g := range got {
			if !almostSame(g.Dist, got[0].Dist) {
				t.Fatalf("%s: duplicate with different distance", a.name)
			}
			ids[g.ID] = true
		}
		if len(ids) != 5 {
			t.Fatalf("%s returned repeated ids", a.name)
		}
	}
}

// Query points far outside the data workspace (disjoint regime of §5.2).
func TestDisjointQueryWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	pts := randPts(rng, 400, 100) // data in [0,100]²
	qs := make([]geom.Point, 16)  // queries around (5000, 5000)
	for i := range qs {
		qs[i] = geom.Point{5000 + rng.Float64()*100, 5000 + rng.Float64()*100}
	}
	tr := buildTree(t, pts, 8)
	want, _ := on(tr, BruteForce, qs, Options{K: 3})
	for _, a := range memAlgos {
		got, err := on(tr, a.run, qs, Options{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, a.name+"/disjoint", got, want)
	}
	// Disk algorithms in the disjoint regime.
	tp := buildTreeIDs(t, pts)
	tq := buildTreeIDs(t, qs)
	qf, _ := NewQueryFile(qs, 5, nil, 0)
	wantPts, _ := BruteForcePoints(pts, qs, Options{K: 3})
	rep, err := GCP(tp, tq, GCPOptions{Options: Options{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "GCP/disjoint", rep.Neighbors, wantPts)
	drep, err := diskOn(tp, FMQM, qf, DiskOptions{Options: Options{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "FMQM/disjoint", drep.Neighbors, wantPts)
	drep, err = diskOn(tp, FMBM, qf, DiskOptions{Options: Options{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "FMBM/disjoint", drep.Neighbors, wantPts)
}

// Identical P and Q: the GNN of Q over P=Q is the group's own medoid.
func TestQueryEqualsData(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	pts := randPts(rng, 60, 100)
	tr := buildTree(t, pts, 8)
	want, _ := on(tr, BruteForce, pts, Options{})
	for _, a := range memAlgos {
		got, err := on(tr, a.run, pts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, a.name+"/medoid", got, want)
	}
	// The medoid's distance must not exceed any single member's total.
	for _, p := range pts {
		if want[0].Dist > geom.SumDist(p, pts)+1e-9 {
			t.Fatal("medoid not optimal among members")
		}
	}
}

// GCP with k > 1: pruning must not start before k complete neighbors.
func TestGCPKPruningDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for trial := 0; trial < 10; trial++ {
		pts := randPts(rng, 150, 500)
		qs := randPts(rng, 20, 500)
		tp := buildTreeIDs(t, pts)
		tq := buildTreeIDs(t, qs)
		for _, k := range []int{2, 5, 10} {
			want, _ := BruteForcePoints(pts, qs, Options{K: k})
			rep, err := GCP(tp, tq, GCPOptions{Options: Options{K: k}})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "GCP/k", rep.Neighbors, want)
		}
	}
}

// F-MQM rounds accounting: phases must be bounded by draws plus flushes.
func TestFMQMRoundsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	pts := clusteredPts(rng, 800, 1000)
	qs := randPts(rng, 100, 200)
	tr := buildTreeIDs(t, pts)
	qf, _ := NewQueryFile(qs, 10, nil, 0) // 10 blocks
	rep, err := diskOn(tr, FMQM, qf, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds == 0 || rep.Rounds > 100*qf.NumBlocks() {
		t.Fatalf("implausible round count %d for %d blocks", rep.Rounds, qf.NumBlocks())
	}
}

// The disk algorithms' bounds do not cover weights or regions: both must
// be rejected loudly rather than silently ignored.
func TestDiskAlgorithmsRejectExtensionOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	pts := randPts(rng, 60, 100)
	qs := randPts(rng, 10, 100)
	tp := buildTreeIDs(t, pts)
	tq := buildTreeIDs(t, qs)
	qf, _ := NewQueryFile(qs, 5, nil, 0)
	region := geom.NewRect(geom.Point{0, 0}, geom.Point{50, 50})
	for _, opt := range []Options{
		{Weights: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{Region: &region},
	} {
		if _, err := GCP(tp, tq, GCPOptions{Options: opt}); err != ErrUnsupportedOption {
			t.Errorf("GCP err = %v", err)
		}
		if _, err := diskOn(tp, FMQM, qf, DiskOptions{Options: opt}); err != ErrUnsupportedOption {
			t.Errorf("FMQM err = %v", err)
		}
		if _, err := diskOn(tp, FMBM, qf, DiskOptions{Options: opt}); err != ErrUnsupportedOption {
			t.Errorf("FMBM err = %v", err)
		}
	}
}

package core

import (
	"math/rand"
	"testing"
)

func TestTraceBestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	pts := clusteredPts(rng, 3000, 1000)
	tr := buildTree(t, pts, 10)
	qs := randPts(rng, 16, 200)
	res, trace, err := MBMTraced(tr.Tree(), qs, Options{K: 4, Packed: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	if trace.NodesVisited == 0 {
		t.Fatal("no nodes visited recorded")
	}
	if trace.ExactDistances < 4 {
		t.Fatalf("ExactDistances = %d, below k", trace.ExactDistances)
	}
	// The exact-distance count is the CPU story of heuristic 2: it must be
	// far below the dataset size.
	if trace.ExactDistances > len(pts)/2 {
		t.Fatalf("heuristic 2 saved nothing: %d exact distances for %d points",
			trace.ExactDistances, len(pts))
	}
}

func TestTraceDepthFirstHeuristicSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pts := clusteredPts(rng, 4000, 1000)
	tr := buildTree(t, pts, 10)
	var h2, h3 int
	for trial := 0; trial < 20; trial++ {
		qs := randPts(rng, 8, 150)
		trace := &Trace{}
		if _, err := on(tr, MBM, qs, Options{Traversal: DepthFirst, Trace: trace}); err != nil {
			t.Fatal(err)
		}
		h2 += trace.NodesPrunedH2
		h3 += trace.NodesPrunedH3
	}
	// Both heuristics must fire across a workload: H2 ends sorted scans,
	// H3 skips survivors (the paper's reason to keep both).
	if h2 == 0 {
		t.Error("heuristic 2 never pruned")
	}
	if h3 == 0 {
		t.Error("heuristic 3 never pruned")
	}
}

func TestTraceDisabledHeuristic3(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	pts := clusteredPts(rng, 2000, 1000)
	tr := buildTree(t, pts, 10)
	qs := randPts(rng, 8, 200)
	trace := &Trace{}
	if _, err := on(tr, MBM, qs, Options{Traversal: DepthFirst, DisableHeuristic3: true, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	if trace.NodesPrunedH3 != 0 {
		t.Fatalf("H3 pruned %d nodes while disabled", trace.NodesPrunedH3)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.add(func(x *Trace) { x.NodesVisited++ }) // must not panic
	rng := rand.New(rand.NewSource(83))
	pts := randPts(rng, 100, 100)
	tree := buildTree(t, pts, 8)
	if _, err := on(tree, MBM, randPts(rng, 4, 100), Options{}); err != nil {
		t.Fatal(err) // no trace attached: nothing recorded, nothing broken
	}
}

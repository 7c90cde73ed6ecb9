package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// Cross-algorithm equivalence suite for the pooled / squared-distance
// kernels: every algorithm × aggregate × weighting combination must return
// the brute-force oracle's answer — distances within 1e-9 rank by rank,
// and identical IDs wherever the oracle's ranking is strict (ties may
// legitimately reorder, which is exactly what the sqrt-elision must not
// silently change beyond). Every algorithm additionally runs twice, once
// with a fresh pooled context and once with a caller-held reused context,
// and the two runs must agree byte for byte.

// oracleEquiv asserts got matches the brute-force oracle under tie
// tolerance.
func oracleEquiv(t *testing.T, name string, got, want []GroupNeighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	const tol = 1e-9
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > tol*(1+want[i].Dist) {
			t.Fatalf("%s: rank %d dist %.17g, want %.17g", name, i, got[i].Dist, want[i].Dist)
		}
	}
	// IDs must match exactly at every rank whose oracle distance is
	// strictly separated from both neighbors (no tie it could swap with).
	for i := range got {
		sep := true
		if i > 0 && want[i].Dist-want[i-1].Dist <= tol*(1+want[i].Dist) {
			sep = false
		}
		if i+1 < len(want) && want[i+1].Dist-want[i].Dist <= tol*(1+want[i].Dist) {
			sep = false
		}
		if sep && got[i].ID != want[i].ID {
			t.Fatalf("%s: rank %d ID %d, want %d (dist %.17g vs %.17g)",
				name, i, got[i].ID, want[i].ID, got[i].Dist, want[i].Dist)
		}
	}
}

// runTwice answers the same query with a nil Exec (pool-cycled) and with a
// shared reused context, requiring identical output, and returns it.
func runTwice(t *testing.T, name string, ec *ExecContext,
	run func(Options) ([]GroupNeighbor, error), opt Options) []GroupNeighbor {
	t.Helper()
	opt.Exec = nil
	fresh, err := run(opt)
	if err != nil {
		t.Fatalf("%s (fresh exec): %v", name, err)
	}
	opt.Exec = ec
	reused, err := run(opt)
	if err != nil {
		t.Fatalf("%s (reused exec): %v", name, err)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("%s: pooled-context run diverged from fresh-context run\nfresh:  %v\nreused: %v",
			name, fresh, reused)
	}
	return fresh
}

func TestEquivalenceMemoryKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	pts := clusteredPts(rng, 3000, 1000)
	tr := buildTree(t, pts, 16)
	ec := AcquireExec() // one context deliberately reused across ALL cells
	defer ec.Release()

	aggs := []Aggregate{Sum, Max, Min}
	for trial := 0; trial < 12; trial++ {
		n := []int{1, 3, 8, 32}[trial%4]
		qs := make([]geom.Point, n)
		base := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		for i := range qs {
			qs[i] = geom.Point{base[0] + rng.Float64()*150, base[1] + rng.Float64()*150}
		}
		var weights []float64
		if trial%2 == 1 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = 0.25 + rng.Float64()*4
			}
		}
		k := []int{1, 4, 9}[trial%3]
		for _, agg := range aggs {
			opt := Options{K: k, Aggregate: agg, Weights: weights}
			oracle, err := on(tr, BruteForce, qs, opt)
			if err != nil {
				t.Fatal(err)
			}
			type cell struct {
				name string
				run  func(Options) ([]GroupNeighbor, error)
				sum  bool // SUM-only algorithm
			}
			cells := []cell{
				{"MQM", func(o Options) ([]GroupNeighbor, error) { return on(tr, MQM, qs, o) }, false},
				{"MBM-BF", func(o Options) ([]GroupNeighbor, error) { return on(tr, MBM, qs, o) }, false},
				{"MBM-DF", func(o Options) ([]GroupNeighbor, error) {
					o.Traversal = DepthFirst
					return on(tr, MBM, qs, o)
				}, false},
				{"SPM-BF", func(o Options) ([]GroupNeighbor, error) { return on(tr, SPM, qs, o) }, true},
				{"SPM-DF", func(o Options) ([]GroupNeighbor, error) {
					o.Traversal = DepthFirst
					return on(tr, SPM, qs, o)
				}, true},
			}
			for _, c := range cells {
				if c.sum && agg != Sum {
					continue
				}
				name := fmt.Sprintf("trial%d/%s/%v/k=%d/weighted=%v", trial, c.name, agg, k, weights != nil)
				got := runTwice(t, name, ec, c.run, opt)
				oracleEquiv(t, name, got, oracle)
			}
		}
	}
}

func TestEquivalenceDiskKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := clusteredPts(rng, 2500, 1000)
	tr := buildTree(t, pts, 16)
	ec := AcquireExec()
	defer ec.Release()

	for trial := 0; trial < 6; trial++ {
		nq := []int{40, 120, 400}[trial%3]
		qpts := make([]geom.Point, nq)
		base := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		for i := range qpts {
			qpts[i] = geom.Point{base[0] + rng.Float64()*300, base[1] + rng.Float64()*300}
		}
		k := []int{1, 5}[trial%2]
		opt := Options{K: k}
		oracle, err := on(tr, BruteForce, qpts, opt)
		if err != nil {
			t.Fatal(err)
		}

		qf, err := NewQueryFile(qpts, 50, pagestore.NewAccountant(0), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		qtree := buildTree(t, qpts, 16)

		type cell struct {
			name string
			run  func(Options) ([]GroupNeighbor, error)
		}
		cells := []cell{
			{"F-MQM", func(o Options) ([]GroupNeighbor, error) {
				rep, err := diskOn(tr, FMQM, qf, o)
				if err != nil {
					return nil, err
				}
				return rep.Neighbors, nil
			}},
			{"F-MBM-BF", func(o Options) ([]GroupNeighbor, error) {
				rep, err := diskOn(tr, FMBM, qf, o)
				if err != nil {
					return nil, err
				}
				return rep.Neighbors, nil
			}},
			{"F-MBM-DF", func(o Options) ([]GroupNeighbor, error) {
				o.Traversal = DepthFirst
				rep, err := diskOn(tr, FMBM, qf, o)
				if err != nil {
					return nil, err
				}
				return rep.Neighbors, nil
			}},
			{"GCP", func(o Options) ([]GroupNeighbor, error) {
				rep, err := GCP(tr, qtree, GCPOptions{Options: o})
				if err != nil {
					return nil, err
				}
				return rep.Neighbors, nil
			}},
		}
		for _, c := range cells {
			name := fmt.Sprintf("trial%d/%s/k=%d", trial, c.name, k)
			got := runTwice(t, name, ec, c.run, opt)
			// Disk kernels accumulate block sums in their own order, so
			// their distances agree with the oracle to float tolerance,
			// not bit for bit; oracleEquiv's 1e-9 covers it.
			oracleEquiv(t, name, got, oracle)
		}
	}
}

// TestEquivalenceSumOnlyRejections: the SUM-only kernels must keep
// rejecting the extension aggregates rather than silently mis-pruning.
func TestEquivalenceSumOnlyRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPts(rng, 300, 100)
	tr := buildTree(t, pts, 8)
	qpts := randPts(rng, 40, 100)
	qf, err := NewQueryFile(qpts, 20, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	qtree := buildTree(t, qpts, 8)
	for _, agg := range []Aggregate{Max, Min} {
		if _, err := on(tr, SPM, qpts, Options{K: 1, Aggregate: agg}); err != ErrUnsupportedAggregate {
			t.Fatalf("SPM(%v): err = %v", agg, err)
		}
		if _, err := diskOn(tr, FMQM, qf, Options{K: 1, Aggregate: agg}); err != ErrUnsupportedAggregate {
			t.Fatalf("FMQM(%v): err = %v", agg, err)
		}
		if _, err := diskOn(tr, FMBM, qf, Options{K: 1, Aggregate: agg}); err != ErrUnsupportedAggregate {
			t.Fatalf("FMBM(%v): err = %v", agg, err)
		}
		if _, err := GCP(tr, qtree, GCPOptions{Options: Options{K: 1, Aggregate: agg}}); err != ErrUnsupportedAggregate {
			t.Fatalf("GCP(%v): err = %v", agg, err)
		}
	}
}

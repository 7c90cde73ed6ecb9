package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gnn/internal/geom"
)

// Differential suite for the dedicated aggregate-MAX kernel: the
// minimum-enclosing-ball path (the default for MAX) must return results
// bit-identical to the generic per-member pruning path (Options.
// GenericMax), on both traversals, while never reading
// more nodes. The two paths evaluate exact distances identically and the
// MEB bound only removes candidates the result accumulator would reject,
// so this is strict equality on results — divergence is a bug, not noise.

// maxDiff runs one MAX query through the dedicated and generic paths and
// fails on any result divergence or on the dedicated path visiting more
// nodes than the generic one.
func maxDiff(t *testing.T, name string, run func(Options) ([]GroupNeighbor, error), opt Options) {
	t.Helper()
	var dtr, gtr Trace
	opt.Aggregate = Max

	opt.GenericMax = false
	opt.Trace = &dtr
	ded, err := run(opt)
	if err != nil {
		t.Fatalf("%s (dedicated): %v", name, err)
	}
	opt.GenericMax = true
	opt.Trace = &gtr
	gen, err := run(opt)
	if err != nil {
		t.Fatalf("%s (generic): %v", name, err)
	}
	if !reflect.DeepEqual(ded, gen) {
		t.Fatalf("%s: results diverged between MAX kernels\ndedicated: %v\ngeneric:   %v", name, ded, gen)
	}
	if dtr.NodesVisited > gtr.NodesVisited {
		t.Fatalf("%s: dedicated kernel visited MORE nodes than generic: %d vs %d",
			name, dtr.NodesVisited, gtr.NodesVisited)
	}
}

func TestMaxKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := clusteredPts(rng, 2500, 1000)
	tr := buildTree(t, pts, 16)

	for trial := 0; trial < 16; trial++ {
		n := []int{1, 2, 3, 8, 33}[trial%5]
		qs := make([]geom.Point, n)
		base := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		for i := range qs {
			qs[i] = geom.Point{base[0] + rng.Float64()*200, base[1] + rng.Float64()*200}
		}
		var weights []float64
		if trial%2 == 1 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = 0.25 + rng.Float64()*4
			}
		}
		k := []int{1, 4, 9}[trial%3]
		for _, df := range []bool{false, true} {
			opt := Options{K: k, Weights: weights}
			if df {
				opt.Traversal = DepthFirst
			}
			name := fmt.Sprintf("trial%d/n=%d/k=%d/df=%v/weighted=%v",
				trial, n, k, df, weights != nil)
			maxDiff(t, name, func(o Options) ([]GroupNeighbor, error) {
				return on(tr, MBM, qs, o)
			}, opt)
		}
	}
}

// TestMaxKernelIterator steps the incremental scan with the dedicated
// and generic MAX kernels in lockstep: the emitted stream must be
// identical even though the dedicated side orders its heap by tighter
// keys.
func TestMaxKernelIterator(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := clusteredPts(rng, 2000, 800)
	tr := buildTree(t, pts, 16)

	for trial := 0; trial < 2; trial++ {
		qs := make([]geom.Point, 7)
		for i := range qs {
			qs[i] = geom.Point{rng.Float64() * 800, rng.Float64() * 800}
		}
		di, err := iterOn(tr, qs, Options{Aggregate: Max})
		if err != nil {
			t.Fatal(err)
		}
		gi, err := iterOn(tr, qs, Options{Aggregate: Max, GenericMax: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			dn, dok := di.Next()
			gn, gok := gi.Next()
			if dok != gok || !reflect.DeepEqual(dn, gn) {
				t.Fatalf("trial %d: stream diverged at %d:\ndedicated: %v %v\ngeneric:   %v %v",
					trial, i, dn, dok, gn, gok)
			}
			if !dok {
				break
			}
		}
		di.Close()
		gi.Close()
	}
}

// FuzzMaxEquivalence fuzzes the dedicated-vs-generic MAX differential
// across dataset shape, group size, k, weights and traversal.
// Any divergence in results — or the dedicated kernel reading more nodes
// than the generic one — crashes the fuzz target.
func FuzzMaxEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(4), uint8(2), false, false)
	f.Add(int64(2), uint16(60), uint8(2), uint8(1), true, false)
	f.Add(int64(3), uint16(900), uint8(16), uint8(7), false, true)
	f.Add(int64(4), uint16(2), uint8(1), uint8(5), true, true)
	f.Add(int64(5), uint16(1100), uint8(23), uint8(0), false, false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, groupSize, k uint8, df, weighted bool) {
		rng := rand.New(rand.NewSource(seed))
		np := int(n)%1200 + 1
		pts := clusteredPts(rng, np, 500)
		tr := buildTree(t, pts, 8)
		qs := make([]geom.Point, int(groupSize)%24+1)
		for i := range qs {
			qs[i] = geom.Point{rng.Float64() * 600, rng.Float64() * 600}
		}
		var weights []float64
		if weighted {
			weights = make([]float64, len(qs))
			for i := range weights {
				weights[i] = 0.25 + rng.Float64()*4
			}
		}
		opt := Options{K: int(k)%12 + 1, Weights: weights}
		if df {
			opt.Traversal = DepthFirst
		}
		maxDiff(t, "fuzz", func(o Options) ([]GroupNeighbor, error) {
			return on(tr, MBM, qs, o)
		}, opt)
	})
}

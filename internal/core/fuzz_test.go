package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gnn/internal/geom"
)

// scanDists is the fuzz oracle: every point inside region (all of them
// when region is nil) scored by a plain scan — per member the Sqrt of an
// axis-ordered squared sum, weighted, aggregated in member order, the
// kernels' canonical operation order — and the k smallest distances
// returned in ascending order.
func scanDists(pts, qs []geom.Point, agg Aggregate, w []float64, region *geom.Rect, k int) []float64 {
	var out []float64
	for _, p := range pts {
		if region != nil && !region.ContainsPoint(p) {
			continue
		}
		d := 0.0
		if agg == Min {
			d = math.Inf(1)
		}
		for j, q := range qs {
			var sq float64
			for a := range p {
				x := p[a] - q[a]
				sq += x * x
			}
			m := math.Sqrt(sq)
			if w != nil {
				m *= w[j]
			}
			switch agg {
			case Max:
				d = math.Max(d, m)
			case Min:
				d = math.Min(d, m)
			default:
				d += m
			}
		}
		out = append(out, d)
	}
	sort.Float64s(out)
	return out[:min(k, len(out))]
}

// FuzzKernelsMatchScan runs every memory-resident kernel — MBM and SPM in
// both traversals, the GNN iterator, MQM and BruteForce — on a packed
// arena (insertion-built or STR-packed) and checks its distances against
// scanDists, over fuzzed data, group size, k, aggregate, weights and
// region. The single-pass kernels must match bit for bit; MQM, which
// aggregates over a Hilbert-sorted copy of the group (a reassociated
// sum), to within 1e-12 relative. The seed corpus lives in
// testdata/fuzz/FuzzKernelsMatchScan and replays in every go test run.
func FuzzKernelsMatchScan(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(5), uint8(4), uint8(0), false, false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, groupSize, k, agg uint8, weighted, constrained bool) {
		rng := rand.New(rand.NewSource(seed))
		pts := clusteredPts(rng, int(n)%1500+1, 500)
		tr := buildTreeIDs(t, pts)
		if seed%2 == 0 {
			tr = buildTree(t, pts, 6)
		}
		qs := make([]geom.Point, int(groupSize)%20+1)
		base := geom.Point{rng.Float64() * 500, rng.Float64() * 500}
		for i := range qs {
			qs[i] = geom.Point{base[0] + rng.Float64()*120, base[1] + rng.Float64()*120}
		}
		opt := Options{K: int(k)%16 + 1, Aggregate: Aggregate(agg % 3)}
		if weighted {
			opt.Weights = make([]float64, len(qs))
			for i := range opt.Weights {
				opt.Weights[i] = 0.25 + rng.Float64()*4
			}
		}
		if constrained {
			lo := geom.Point{rng.Float64() * 500, rng.Float64() * 500}
			r := geom.NewRect(lo, geom.Point{lo[0] + rng.Float64()*300, lo[1] + rng.Float64()*300})
			opt.Region = &r
		}
		want := scanDists(pts, qs, opt.Aggregate, opt.Weights, opt.Region, opt.K)

		check := func(name string, got []GroupNeighbor, err error, rtol float64) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
			}
			for i, g := range got {
				if d := math.Abs(g.Dist - want[i]); d > rtol*(1+math.Abs(want[i])) {
					t.Fatalf("%s rank %d: dist %v, scan %v", name, i, g.Dist, want[i])
				}
				if opt.Region != nil && !opt.Region.ContainsPoint(g.Point) {
					t.Fatalf("%s rank %d: %v outside the region", name, i, g.Point)
				}
			}
		}
		df := opt
		df.Traversal = DepthFirst
		got, err := on(tr, MBM, qs, opt)
		check("MBM-BF", got, err, 0)
		got, err = on(tr, MBM, qs, df)
		check("MBM-DF", got, err, 0)
		got, err = on(tr, BruteForce, qs, opt)
		check("BruteForce", got, err, 0)
		got, err = on(tr, MQM, qs, opt)
		check("MQM", got, err, 1e-12)
		if opt.Aggregate == Sum {
			got, err = on(tr, SPM, qs, opt)
			check("SPM-BF", got, err, 0)
			got, err = on(tr, SPM, qs, df)
			check("SPM-DF", got, err, 0)
		}
		it, err := iterOn(tr, qs, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		got = got[:0]
		for len(got) < opt.K {
			g, ok := it.Next()
			if !ok {
				break
			}
			g.Point = g.Point.Clone()
			got = append(got, g)
		}
		check("iterator", got, nil, 0)
	})
}

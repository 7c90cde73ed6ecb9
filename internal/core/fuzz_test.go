package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/rtree"
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

// FuzzKernelsMatchScan runs every memory-resident kernel on a packed
// arena (STR-packed, or with overlapping nodes: buildShuffled) and
// checks its distances against scanDists (see kernelsMatchScan), over
// fuzzed data, group size, k, aggregate, weights and region. The seed corpus lives in
// testdata/fuzz/FuzzKernelsMatchScan and replays in every go test run.
func FuzzKernelsMatchScan(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(5), uint8(4), uint8(0), false, false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, groupSize, k, agg uint8, weighted, constrained bool) {
		rng := rand.New(rand.NewSource(seed))
		pts := clusteredPts(rng, int(n)%1500+1, 500)
		tr := buildTreeIDs(t, pts)
		if seed%2 == 0 {
			tr = buildShuffled(t, pts, 6, seed)
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
		kernelsMatchScan(t, tr, pts, qs, opt)
	})
}

// kernelsMatchScan runs MBM and SPM in both traversals, the GNN
// iterator, MQM, BruteForce and the overlay's ScanPoints and ScanAll over
// pts (indexed by tr, ids the slice positions) and checks their
// distances against scanDists. Every kernel must match bit for bit
// except MQM, which aggregates over a Hilbert-sorted copy of a 2-D group
// (a reassociated sum): it must agree to within 1e-12 relative. SPM runs
// for SUM only.
func kernelsMatchScan(t *testing.T, tr *rtree.Packed, pts, qs []geom.Point, opt Options) {
	t.Helper()
	want := scanDists(pts, qs, opt.Aggregate, opt.Weights, opt.Region, opt.K)
	check := func(name string, got []GroupNeighbor, err error, want []float64, rtol float64) {
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
	check("MBM-BF", got, err, want, 0)
	got, err = on(tr, MBM, qs, df)
	check("MBM-DF", got, err, want, 0)
	got, err = on(tr, BruteForce, qs, opt)
	check("BruteForce", got, err, want, 0)
	got, err = on(tr, MQM, qs, opt)
	check("MQM", got, err, want, 1e-12)
	if opt.Aggregate == Sum {
		got, err = on(tr, SPM, qs, opt)
		check("SPM-BF", got, err, want, 0)
		got, err = on(tr, SPM, qs, df)
		check("SPM-DF", got, err, want, 0)
	}
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	got, err = ScanPoints(pts, ids, qs, opt)
	check("ScanPoints", got, err, want, 0)
	got, err = ScanAll(pts, ids, qs, opt)
	check("ScanAll", got, err, scanDists(pts, qs, opt.Aggregate, opt.Weights, opt.Region, len(pts)), 0)

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
	check("iterator", got, nil, want, 0)
}

// TestKernelsOutside2D runs kernelsMatchScan on data that is not 2-D
// (d = 1, 3 and 4, 20 seeds each), on STR-packed and shuffled
// (buildShuffled) arenas, for every aggregate, weighted or not, with and without a
// region: the fuzz target and the golden suites are all 2-D, so this is
// what exercises the aggregate family's generic-dimension path.
func TestKernelsOutside2D(t *testing.T) {
	for _, d := range []int{1, 3, 4} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(d)))
			pts := make([]geom.Point, 0, 600)
			for n := 1 + rng.Intn(600); len(pts) < n; {
				c := randIn(rng, d, 500)
				for j := 0; j < 20 && len(pts) < n; j++ {
					p := make(geom.Point, d)
					for a := range p {
						p[a] = c[a] + rng.NormFloat64()*5
					}
					pts = append(pts, p)
				}
			}
			var tr *rtree.Packed
			if seed%2 == 0 {
				tr = buildTreeIDs(t, pts)
			} else {
				tr = buildShuffled(t, pts, 6, seed)
			}
			qs := make([]geom.Point, 1+rng.Intn(12))
			base := randIn(rng, d, 500)
			for i := range qs {
				qs[i] = make(geom.Point, d)
				for a := range qs[i] {
					qs[i][a] = base[a] + rng.Float64()*120
				}
			}
			weights := make([]float64, len(qs))
			for i := range weights {
				weights[i] = 0.25 + rng.Float64()*4
			}
			lo := randIn(rng, d, 500)
			hi := make(geom.Point, d)
			for a := range hi {
				hi[a] = lo[a] + 100 + rng.Float64()*300
			}
			region := geom.NewRect(lo, hi)
			k := 1 + rng.Intn(10)
			for _, agg := range []Aggregate{Sum, Max, Min} {
				for _, w := range [][]float64{nil, weights} {
					for _, r := range []*geom.Rect{nil, &region} {
						kernelsMatchScan(t, tr, pts, qs, Options{K: k, Aggregate: agg, Weights: w, Region: r})
					}
				}
			}
		}
	}
}

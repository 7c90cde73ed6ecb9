// Metamorphic test suite: GNN answers must be invariant under geometric
// transformations of the whole scene (data and query group together) and
// under permutation of the query group, for every algorithm and
// aggregate, on both the plain and the sharded index.
//
// The first three transformations are chosen to be floating-point exact
// on integer-coordinate data, so the suite can demand bit-identical
// distances rather than tolerances:
//
//   - translation by an integer vector: coordinate differences (the only
//     thing distances see) are unchanged bit for bit;
//   - axis swap: per-term squared distances are sums of per-axis squares,
//     and float addition is commutative;
//   - uniform scaling by a power of two: exact on every coordinate,
//     difference, square root and sum (rounding commutes with powers of
//     two), so every distance scales by exactly the factor.
//
// Permutation of the query group changes the order of the aggregate's
// floating-point reduction, which legitimately perturbs distances by
// ulps, so that invariant is checked with a tolerance on distances and
// rank-order IDs.
package gnn_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gnn"
)

// intPoints generates n distinct integer-coordinate points in
// [0, span)², the substrate that keeps the exact transforms exact.
func intPoints(rng *rand.Rand, n int, span int) []gnn.Point {
	seen := map[[2]int]bool{}
	pts := make([]gnn.Point, 0, n)
	for len(pts) < n {
		x, y := rng.Intn(span), rng.Intn(span)
		if seen[[2]int{x, y}] {
			continue
		}
		seen[[2]int{x, y}] = true
		pts = append(pts, gnn.Point{float64(x), float64(y)})
	}
	return pts
}

// mapPoints applies f to every point of a slice.
func mapPoints(pts []gnn.Point, f func(gnn.Point) gnn.Point) []gnn.Point {
	out := make([]gnn.Point, len(pts))
	for i, p := range pts {
		out[i] = f(p)
	}
	return out
}

// metaXform is one metamorphic transformation of the scene.
type metaXform struct {
	name       string
	pt         func(gnn.Point) gnn.Point // applied to data and query points
	distFactor float64                   // exact factor all distances scale by
	// reordersGroup marks transforms that change the Hilbert order of the
	// query points: MQM re-sorts its group by Hilbert value, so for it the
	// aggregate's reduction order — and with it the last few ulps of each
	// distance — shifts, and the comparison must fall back to a tolerance.
	// Translation and power-of-two scaling map every point to the same
	// grid cell offsets, so the Hilbert order is provably unchanged; an
	// axis swap mirrors the curve and is not.
	reordersGroup bool
}

func metaXforms() []metaXform {
	return []metaXform{
		{"translate", func(p gnn.Point) gnn.Point {
			return gnn.Point{p[0] + 131072, p[1] - 65536}
		}, 1, false},
		{"axis-swap", func(p gnn.Point) gnn.Point {
			return gnn.Point{p[1], p[0]}
		}, 1, true},
		{"scale-4x", func(p gnn.Point) gnn.Point {
			return gnn.Point{p[0] * 4, p[1] * 4}
		}, 4, false},
		{"scale-quarter", func(p gnn.Point) gnn.Point {
			return gnn.Point{p[0] * 0.25, p[1] * 0.25}
		}, 0.25, false},
	}
}

// metaEngine abstracts the two index kinds under test.
type metaEngine struct {
	name  string
	build func(t *testing.T, pts []gnn.Point) interface {
		GroupNN(q []gnn.Point, opts ...gnn.QueryOption) ([]gnn.Result, error)
	}
}

func metaEngines() []metaEngine {
	return []metaEngine{
		{"index", func(t *testing.T, pts []gnn.Point) interface {
			GroupNN(q []gnn.Point, opts ...gnn.QueryOption) ([]gnn.Result, error)
		} {
			ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: 16})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}},
		{"sharded", func(t *testing.T, pts []gnn.Point) interface {
			GroupNN(q []gnn.Point, opts ...gnn.QueryOption) ([]gnn.Result, error)
		} {
			sx, err := gnn.BuildShardedIndex(pts, nil, 5, gnn.IndexConfig{NodeCapacity: 16})
			if err != nil {
				t.Fatal(err)
			}
			return sx
		}},
	}
}

// metaCells enumerates the algorithm × aggregate × traversal cells the
// suite runs (SPM is SUM-only by design).
type metaCell struct {
	name string
	mqm  bool // resorts the group internally (see metaXform.reordersGroup)
	opts []gnn.QueryOption
}

func metaCells() []metaCell {
	return []metaCell{
		{"MBM/sum", false, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM)}},
		{"MBM-DF/sum", false, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst()}},
		{"MBM/max", false, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist)}},
		// The dedicated aggregate-MAX kernel (MEB pruning) and the generic
		// per-member path, both traversals: the transforms must commute
		// with the ball bound exactly as with the per-member bounds.
		{"MBM-DF/max", false, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst(), gnn.WithAggregate(gnn.MaxDist)}},
		{"MBM/max-generic", false, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist), gnn.WithGenericMax()}},
		{"MBM-DF/max-generic", false, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst(), gnn.WithAggregate(gnn.MaxDist), gnn.WithGenericMax()}},
		{"MBM/min", false, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MinDist)}},
		{"MQM/sum", true, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM)}},
		{"MQM/max", true, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM), gnn.WithAggregate(gnn.MaxDist)}},
		{"SPM/sum", false, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM)}},
		{"brute/sum", false, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoBruteForce)}},
		{"brute/max", false, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoBruteForce), gnn.WithAggregate(gnn.MaxDist)}},
	}
}

// TestMetamorphicTransforms checks the exact transforms: identical ID
// rankings and bit-identical distances (up to the exact scale factor)
// under translation, axis swap and power-of-two scaling.
func TestMetamorphicTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := intPoints(rng, 2500, 1<<20)
	groups := [][]gnn.Point{
		intPoints(rng, 1, 1<<20),
		intPoints(rng, 5, 1<<20),
		intPoints(rng, 32, 1<<20),
	}
	for _, eng := range metaEngines() {
		base := eng.build(t, pts)
		for _, xf := range metaXforms() {
			xformed := eng.build(t, mapPoints(pts, xf.pt))
			for gi, qs := range groups {
				xqs := mapPoints(qs, xf.pt)
				k := []int{1, 8}[gi%2]
				for _, cell := range metaCells() {
					name := fmt.Sprintf("%s/%s/%s/group%d", eng.name, xf.name, cell.name, len(qs))
					opts := append(append([]gnn.QueryOption{}, cell.opts...),
						gnn.WithK(k))
					want, err := base.GroupNN(qs, opts...)
					if err != nil {
						t.Fatalf("%s (base): %v", name, err)
					}
					got, err := xformed.GroupNN(xqs, opts...)
					if err != nil {
						t.Fatalf("%s (transformed): %v", name, err)
					}
					if len(want) != len(got) {
						t.Fatalf("%s: %d results vs %d", name, len(want), len(got))
					}
					exact := !(xf.reordersGroup && cell.mqm)
					for i := range want {
						if got[i].ID != want[i].ID {
							t.Fatalf("%s: rank %d is #%d, want #%d\nbase: %v\nxf:   %v",
								name, i, got[i].ID, want[i].ID, want, got)
						}
						scaled := want[i].Dist * xf.distFactor
						if exact && got[i].Dist != scaled {
							t.Fatalf("%s: rank %d distance %v, want exactly %v·%v",
								name, i, got[i].Dist, want[i].Dist, xf.distFactor)
						}
						if d := math.Abs(got[i].Dist - scaled); d > 1e-9*(1+scaled) {
							t.Fatalf("%s: rank %d distance drifted %v vs %v",
								name, i, got[i].Dist, scaled)
						}
					}
				}
			}
		}
	}
}

// TestMetamorphicGroupPermutation checks that permuting the query group
// leaves the answer invariant: same IDs in the same ranking, distances
// equal within floating-point reduction noise.
func TestMetamorphicGroupPermutation(t *testing.T) {
	const rtol = 1e-9
	rng := rand.New(rand.NewSource(22))
	pts := intPoints(rng, 2500, 1<<20)
	for _, eng := range metaEngines() {
		ix := eng.build(t, pts)
		for _, n := range []int{2, 7, 32} {
			qs := intPoints(rng, n, 1<<20)
			perms := [][]gnn.Point{reversed(qs), shuffled(rng, qs)}
			for _, cell := range metaCells() {
				name := fmt.Sprintf("%s/%s/group%d", eng.name, cell.name, n)
				opts := append(append([]gnn.QueryOption{}, cell.opts...),
					gnn.WithK(6))
				want, err := ix.GroupNN(qs, opts...)
				if err != nil {
					t.Fatalf("%s (base): %v", name, err)
				}
				for pi, pqs := range perms {
					got, err := ix.GroupNN(pqs, opts...)
					if err != nil {
						t.Fatalf("%s (perm %d): %v", name, pi, err)
					}
					if len(want) != len(got) {
						t.Fatalf("%s perm %d: %d results vs %d", name, pi, len(want), len(got))
					}
					for i := range want {
						if got[i].ID != want[i].ID {
							t.Fatalf("%s perm %d: rank %d is #%d, want #%d\nbase: %v\nperm: %v",
								name, pi, i, got[i].ID, want[i].ID, want, got)
						}
						if d := math.Abs(got[i].Dist - want[i].Dist); d > rtol*(1+want[i].Dist) {
							t.Fatalf("%s perm %d: rank %d distance drifted %v vs %v",
								name, pi, i, got[i].Dist, want[i].Dist)
						}
					}
				}
			}
		}
	}
}

func reversed(qs []gnn.Point) []gnn.Point {
	out := make([]gnn.Point, len(qs))
	for i, q := range qs {
		out[len(qs)-1-i] = q
	}
	return out
}

func shuffled(rng *rand.Rand, qs []gnn.Point) []gnn.Point {
	out := make([]gnn.Point, len(qs))
	copy(out, qs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

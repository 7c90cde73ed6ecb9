package gnn_test

// The weighted-MAX contract, pinned by table-driven tests over every
// aggregate × weights × algorithm combination:
//
//   - Memory-resident algorithms (MBM both traversals, MQM, brute force,
//     sharded) scale each per-member distance by its weight BEFORE the
//     max/min/sum reduction: dist_w(p,Q) = agg_i w_i·|p q_i|. The
//     dedicated MEB kernel implements the identical semantics (its bound
//     scales by min_i w_i), verified against the generic path.
//   - SPM accepts weights but only the SUM aggregate (its pruning lemma
//     is sum-only): MAX or MIN yield ErrUnsupportedAggregate.
//   - The disk-resident family (F-MQM, F-MBM, GCP) is SUM-only
//     (ErrUnsupportedAggregate) and rejects weighted groups outright
//     with ErrUnsupportedOption rather than silently ignoring weights.

import (
	"errors"
	"math/rand"
	"testing"

	"gnn"
)

func TestWeightedAggregateSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := clusterPoints(rng, 1500, 1000)
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	ix, sx := buildBoth(t, pts, 3, gnn.IndexConfig{NodeCapacity: 16})

	algos := []struct {
		name string
		opts []gnn.QueryOption
		rtol float64 // 0 = bit-identical to the reference reduction
	}{
		{"MBM-BF", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM)}, 0},
		{"MBM-DF", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst()}, 0},
		{"MBM-BF-genericmax", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithGenericMax()}, 0},
		{"brute", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoBruteForce)}, 0},
		{"MQM", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM)}, 1e-12},
	}
	for trial := 0; trial < 6; trial++ {
		qs := queryGroup(rng, []int{2, 5, 17}[trial%3], 1000)
		w := oracleWeights(len(qs))
		for _, agg := range []gnn.Aggregate{gnn.SumDist, gnn.MaxDist, gnn.MinDist} {
			want := oracleTopK(pts, ids, qs, agg, w, 6, nil)
			for _, al := range algos {
				name := al.name + "/" + aggName(agg)
				opts := append([]gnn.QueryOption{
					gnn.WithK(6), gnn.WithAggregate(agg), gnn.WithWeights(w),
				}, al.opts...)
				got, err := ix.GroupNN(qs, opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if al.rtol == 0 {
					sameResults(t, name, want, got)
				} else {
					oracleApprox(t, name, want, got, qs, agg, w, al.rtol)
				}
			}
			// Sharded scatter-gather under the same weighted reduction.
			sgot, err := sx.GroupNN(qs, gnn.WithK(6), gnn.WithAggregate(agg), gnn.WithWeights(w))
			if err != nil {
				t.Fatalf("sharded/%s: %v", aggName(agg), err)
			}
			sameResults(t, "sharded/"+aggName(agg), want, sgot)
		}
	}
}

func aggName(a gnn.Aggregate) string {
	switch a {
	case gnn.MaxDist:
		return "max"
	case gnn.MinDist:
		return "min"
	}
	return "sum"
}

func TestAggregateRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	pts := clusterPoints(rng, 800, 1000)
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	qix, err := gnn.BuildIndex(pts[:100], nil, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	qpts := make([]gnn.Point, 120)
	for i := range qpts {
		qpts[i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	qset, err := gnn.NewQuerySet(qpts, gnn.QuerySetConfig{BlockPoints: 32})
	if err != nil {
		t.Fatal(err)
	}
	group := queryGroup(rng, 5, 1000)
	w5 := oracleWeights(5)

	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"SPM/max", func() error {
			_, err := ix.GroupNN(group, gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithAggregate(gnn.MaxDist))
			return err
		}, gnn.ErrUnsupportedAggregate},
		{"SPM/min", func() error {
			_, err := ix.GroupNN(group, gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithAggregate(gnn.MinDist))
			return err
		}, gnn.ErrUnsupportedAggregate},
		{"SPM/max/weighted", func() error {
			_, err := ix.GroupNN(group, gnn.WithAlgorithm(gnn.AlgoSPM),
				gnn.WithAggregate(gnn.MaxDist), gnn.WithWeights(w5))
			return err
		}, gnn.ErrUnsupportedAggregate},
		{"F-MQM/max", func() error {
			_, err := ix.GroupNNFromSet(qset, gnn.DiskFMQM, gnn.WithAggregate(gnn.MaxDist))
			return err
		}, gnn.ErrUnsupportedAggregate},
		{"F-MBM/max", func() error {
			_, err := ix.GroupNNFromSet(qset, gnn.DiskFMBM, gnn.WithAggregate(gnn.MaxDist))
			return err
		}, gnn.ErrUnsupportedAggregate},
		{"F-MQM/weighted", func() error {
			_, err := ix.GroupNNFromSet(qset, gnn.DiskFMQM, gnn.WithWeights(oracleWeights(len(qpts))))
			return err
		}, gnn.ErrUnsupportedOption},
		{"F-MBM/weighted", func() error {
			_, err := ix.GroupNNFromSet(qset, gnn.DiskFMBM, gnn.WithWeights(oracleWeights(len(qpts))))
			return err
		}, gnn.ErrUnsupportedOption},
		{"GCP/max", func() error {
			_, err := ix.GroupNNClosestPairs(qix, 1<<20, gnn.WithAggregate(gnn.MaxDist))
			return err
		}, gnn.ErrUnsupportedAggregate},
	}
	for _, tc := range cases {
		err := tc.run()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Weight-vector validation is shared by every memory algorithm: a
	// length mismatch or non-positive weight must fail loudly under MAX
	// exactly as under SUM.
	if _, err := ix.GroupNN(group, gnn.WithAggregate(gnn.MaxDist), gnn.WithWeights(oracleWeights(3))); err == nil {
		t.Error("length-mismatched weights accepted under MAX")
	}
	if _, err := ix.GroupNN(group, gnn.WithAggregate(gnn.MaxDist), gnn.WithWeights([]float64{1, 1, 1, 1, -2})); err == nil {
		t.Error("negative weight accepted under MAX")
	}
}

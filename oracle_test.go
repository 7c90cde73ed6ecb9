package gnn_test

// Brute-force-oracle differential suite: every algorithm × aggregate × k
// × region cell, across every serving environment (plain index, sharded
// scatter-gather, mapped snapshot, overlay-mutated index), must reproduce
// an independent streaming brute-force scan of the live point set bit
// for bit — identical distances, identical IDs up to sanctioned exact
// ties. The oracle
// below shares no traversal code with the kernels: it recomputes every
// aggregate distance from raw coordinates with the library's canonical
// floating-point op order (per-member sqrt of an axis-ordered squared
// sum, aggregated in member order), so agreement is exact, not
// approximate.
//
// Registering a new cell is one line in oracleCells; registering a new
// environment is one entry in the environment table of
// TestOracleDifferential.

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"gnn"
)

// oracleDist is the reference aggregate distance: no kernel code, same
// canonical FP op order (see weighted.go's SoA fast-path contract).
func oracleDist(p gnn.Point, qs []gnn.Point, agg gnn.Aggregate, w []float64) float64 {
	var out float64
	if agg == gnn.MinDist {
		out = math.Inf(1)
	}
	for i, q := range qs {
		var dsq float64
		for ax := range p {
			d := p[ax] - q[ax]
			dsq += d * d
		}
		d := math.Sqrt(dsq)
		if w != nil {
			d *= w[i]
		}
		switch agg {
		case gnn.MaxDist:
			if d > out {
				out = d
			}
		case gnn.MinDist:
			if d < out {
				out = d
			}
		default:
			out += d
		}
	}
	return out
}

// oracleTopK is the streaming brute-force ground truth: every live point
// inside the region (all of them when region is nil) scored, sorted
// ascending by aggregate distance (ties by ID — the tie-aware comparison
// treats equal-distance runs as sets).
func oracleTopK(pts []gnn.Point, ids []int64, qs []gnn.Point,
	agg gnn.Aggregate, w []float64, k int, region *[2]gnn.Point) []gnn.Result {
	all := make([]gnn.Result, 0, len(pts))
	for i, p := range pts {
		if region != nil && !oracleInside(p, region) {
			continue
		}
		all = append(all, gnn.Result{Point: p, ID: ids[i], Dist: oracleDist(p, qs, agg, w)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// oracleInside reports whether p lies in the closed box region[0]..region[1].
func oracleInside(p gnn.Point, region *[2]gnn.Point) bool {
	for ax := range p {
		if p[ax] < region[0][ax] || p[ax] > region[1][ax] {
			return false
		}
	}
	return true
}

// oracleRegion derives a deterministic constraint box from a group: it
// overlaps the group's neighbourhood on one side only, so constrained
// answers differ from unconstrained ones and whole subtrees miss it.
func oracleRegion(qs []gnn.Point) *[2]gnn.Point {
	return &[2]gnn.Point{{qs[0][0] + 30, qs[0][1] - 200}, {qs[0][0] + 260, qs[0][1] + 60}}
}

// oracleCell is one registered query shape. weighted derives a
// deterministic per-member weight vector from the group size; region
// constrains it with oracleRegion; iter answers it with the first k
// results of GroupNNIterator instead of GroupNN. rtol 0
// demands bit-identical distances (the single-pass kernels share the
// oracle's canonical FP op order); MQM cells carry an ulp-scale
// tolerance because its incremental per-stream accumulation legitimately
// reassociates the sum.
type oracleCell struct {
	name     string
	k        int
	agg      gnn.Aggregate
	weighted bool
	region   bool
	iter     bool
	sumOnly  bool // cell uses an algorithm whose pruning lemma is sum-only
	rtol     float64
	opts     []gnn.QueryOption
}

func oracleCells() []oracleCell {
	c := func(name string, k int, agg gnn.Aggregate, weighted bool, opts ...gnn.QueryOption) oracleCell {
		return oracleCell{name: name, k: k, agg: agg, weighted: weighted, opts: opts}
	}
	regional := func(name string, k int, agg gnn.Aggregate, weighted bool, opts ...gnn.QueryOption) oracleCell {
		cell := c(name, k, agg, weighted, opts...)
		cell.region = true
		return cell
	}
	mbm := gnn.WithAlgorithm(gnn.AlgoMBM)
	spm := gnn.WithAlgorithm(gnn.AlgoSPM)
	df := gnn.WithDepthFirst()
	return []oracleCell{
		c("MBM-BF/sum", 5, gnn.SumDist, false, mbm),
		c("MBM-BF/max", 5, gnn.MaxDist, false, mbm),
		c("MBM-BF/min", 5, gnn.MinDist, false, mbm),
		c("MBM-DF/sum", 5, gnn.SumDist, false, mbm, df),
		c("MBM-DF/max", 5, gnn.MaxDist, false, mbm, df),
		c("MBM-BF/max-generic", 5, gnn.MaxDist, false, mbm, gnn.WithGenericMax()),
		c("MBM-DF/max-generic", 5, gnn.MaxDist, false, mbm, df, gnn.WithGenericMax()),
		c("MBM-BF/max/k=1", 1, gnn.MaxDist, false, mbm),
		c("MBM-BF/max/k=32", 32, gnn.MaxDist, false, mbm),
		c("MBM-BF/sum/weighted", 5, gnn.SumDist, true, mbm),
		c("MBM-BF/max/weighted", 5, gnn.MaxDist, true, mbm),
		c("MBM-DF/max/weighted", 5, gnn.MaxDist, true, mbm, df),
		c("MBM-BF/max-generic/weighted", 5, gnn.MaxDist, true, mbm, gnn.WithGenericMax()),
		{name: "MQM/sum", k: 3, agg: gnn.SumDist, rtol: 1e-12,
			opts: []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM)}},
		{name: "MQM/max", k: 3, agg: gnn.MaxDist, rtol: 1e-12,
			opts: []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM)}},
		{name: "SPM/sum", k: 5, agg: gnn.SumDist, sumOnly: true,
			opts: []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM)}},
		c("brute/max", 5, gnn.MaxDist, false, gnn.WithAlgorithm(gnn.AlgoBruteForce)),
		regional("MBM-BF/sum/region", 5, gnn.SumDist, false, mbm),
		regional("MBM-DF/sum/region", 5, gnn.SumDist, false, mbm, df),
		regional("MBM-BF/max/region", 5, gnn.MaxDist, false, mbm),
		regional("MBM-BF/sum/region/weighted", 5, gnn.SumDist, true, mbm),
		regional("MBM-DF/sum/region/weighted", 5, gnn.SumDist, true, mbm, df),
		regional("SPM-BF/sum/region", 5, gnn.SumDist, false, spm),
		regional("SPM-DF/sum/region", 5, gnn.SumDist, false, spm, df),
		regional("SPM-BF/sum/region/weighted", 5, gnn.SumDist, true, spm),
		regional("SPM-DF/sum/region/weighted", 5, gnn.SumDist, true, spm, df),
		{name: "iterator/sum/region", k: 5, agg: gnn.SumDist, region: true, iter: true},
		{name: "iterator/sum/region/weighted", k: 5, agg: gnn.SumDist, weighted: true, region: true, iter: true},
	}
}

// iterGrouper is an index that also serves incremental scans.
type iterGrouper interface {
	grouper
	GroupNNIterator(query []gnn.Point, opts ...gnn.QueryOption) (*gnn.Iterator, error)
}

// oracleAnswer runs one cell's query: GroupNN, or the first k results of
// the incremental iterator.
func oracleAnswer(g iterGrouper, cell oracleCell, qs []gnn.Point, opts []gnn.QueryOption) ([]gnn.Result, error) {
	if !cell.iter {
		return g.GroupNN(qs, opts...)
	}
	it, err := g.GroupNNIterator(qs, opts...)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []gnn.Result
	for len(out) < cell.k {
		r, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, nil
}

// cellOptions assembles a cell's query options for one group; w and
// region are the cell's weights and constraint box (nil when unused).
func cellOptions(cell oracleCell, qs []gnn.Point) (opts []gnn.QueryOption, w []float64, region *[2]gnn.Point) {
	opts = append([]gnn.QueryOption{gnn.WithK(cell.k), gnn.WithAggregate(cell.agg)}, cell.opts...)
	if cell.weighted {
		w = oracleWeights(len(qs))
		opts = append(opts, gnn.WithWeights(w))
	}
	if cell.region {
		region = oracleRegion(qs)
		opts = append(opts, gnn.WithRegion(region[0], region[1]))
	}
	return opts, w, region
}

// oracleWeights derives the deterministic weight vector for a group.
func oracleWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + float64((i*7)%11)*0.375
	}
	return w
}

// oracleCheck runs one cell against one environment and compares with
// the brute-force ground truth, tie-aware.
func oracleCheck(t *testing.T, env string, g iterGrouper, pts []gnn.Point, ids []int64,
	groups [][]gnn.Point, cell oracleCell) {
	t.Helper()
	for gi, qs := range groups {
		opts, w, region := cellOptions(cell, qs)
		got, err := oracleAnswer(g, cell, qs, opts)
		if err != nil {
			t.Fatalf("%s/%s group=%d: %v", env, cell.name, gi, err)
		}
		want := oracleTopK(pts, ids, qs, cell.agg, w, cell.k, region)
		if cell.rtol == 0 {
			sameResults(t, env+"/"+cell.name, want, got)
			continue
		}
		oracleApprox(t, env+"/"+cell.name, want, got, qs, cell.agg, w, cell.rtol)
	}
}

// oracleApprox is the tolerant top-k check for kernels whose reported
// distances legitimately reassociate FP ops: each result must be a real
// point whose true aggregate distance matches its reported one within
// rtol, ranks must be non-decreasing, and the k-th distance must match
// the oracle's k-th within rtol (so no qualifying point was dropped and
// no non-qualifying point slipped in beyond tie noise).
func oracleApprox(t *testing.T, name string, want, got []gnn.Result,
	qs []gnn.Point, agg gnn.Aggregate, w []float64, rtol float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results vs %d", name, len(want), len(got))
	}
	close := func(a, b float64) bool { return math.Abs(a-b) <= rtol*(1+math.Abs(a)+math.Abs(b)) }
	for i, r := range got {
		if i > 0 && got[i-1].Dist > r.Dist {
			t.Fatalf("%s: ranks out of order at %d: %v > %v", name, i, got[i-1].Dist, r.Dist)
		}
		if exact := oracleDist(r.Point, qs, agg, w); !close(exact, r.Dist) {
			t.Fatalf("%s: rank %d reports dist %v, true aggregate distance %v",
				name, i, r.Dist, exact)
		}
		if !close(want[i].Dist, r.Dist) {
			t.Fatalf("%s: rank %d dist %v, oracle %v\nwant: %v\ngot:  %v",
				name, i, r.Dist, want[i].Dist, want, got)
		}
	}
}

func TestOracleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	pts := clusterPoints(rng, 2200, 1000)
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	groups := make([][]gnn.Point, 10)
	for i := range groups {
		groups[i] = queryGroup(rng, []int{1, 2, 5, 16, 48}[i%5], 1000)
	}

	ix, err := gnn.BuildIndex(pts, ids, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, ids, 4, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "oracle.snap")
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	// The overlay environment mutates a copy of the base index — overlay
	// inserts past the fold threshold, base tombstones, overlay deletes,
	// a resurrection — and the oracle tracks the live multiset.
	oix, err := gnn.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mrng := rand.New(rand.NewSource(5432))
	livePts, liveIDs := runMutationScript(t, oix, pts, mrng)

	envs := []struct {
		name string
		g    iterGrouper
		pts  []gnn.Point
		ids  []int64
	}{
		{"plain", ix, pts, ids},
		{"sharded", sx, pts, ids},
		{"mapped", mapped, pts, ids},
		{"overlay", oix, livePts, liveIDs},
	}
	for _, env := range envs {
		for _, cell := range oracleCells() {
			oracleCheck(t, env.name, env.g, env.pts, env.ids, groups, cell)
		}
	}
}

// TestOracleCostParity locks the sharded contract on top of the result
// contract: the sequential sharded scatter of every cell answers exactly
// like the plain index.
func TestOracleCostParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8765))
	pts := clusterPoints(rng, 2200, 1000)
	ix, sx := buildBoth(t, pts, 4, gnn.IndexConfig{NodeCapacity: 16})
	groups := make([][]gnn.Point, 6)
	for i := range groups {
		groups[i] = queryGroup(rng, []int{1, 4, 16}[i%3], 1000)
	}
	for gi, qs := range groups {
		for _, cell := range oracleCells() {
			if cell.sumOnly && cell.agg != gnn.SumDist || cell.iter {
				continue
			}
			name := cell.name + "/g" + string(rune('0'+gi))
			opts, _, _ := cellOptions(cell, qs)
			res, err := ix.GroupNN(qs, opts...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sRes, err := sx.GroupNN(qs, append(opts, gnn.WithShards(1))...)
			if err != nil {
				t.Fatalf("%s sharded: %v", name, err)
			}
			sameResults(t, name+"/sharded", res, sRes)
		}
	}
}

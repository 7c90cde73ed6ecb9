package gnn_test

import (
	"reflect"
	"testing"

	"gnn"
)

// requireExplainMatches runs the same query plain and explained and
// fails unless the results are bit-identical and the explain is sane.
func requireExplainMatches(t *testing.T, label string, ix *gnn.Index, q []gnn.Point, opts ...gnn.QueryOption) *gnn.QueryExplain {
	t.Helper()
	plain, err := ix.GroupNN(q, opts...)
	if err != nil {
		t.Fatalf("%s: GroupNN: %v", label, err)
	}
	res, ex, err := ix.GroupNNExplain(q, opts...)
	if err != nil {
		t.Fatalf("%s: GroupNNExplain: %v", label, err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatalf("%s: explained results diverged:\n plain: %v\n explain: %v", label, plain, res)
	}
	if ex == nil {
		t.Fatalf("%s: nil explain", label)
	}
	if ex.GroupSize != len(q) {
		t.Errorf("%s: GroupSize = %d, want %d", label, ex.GroupSize, len(q))
	}
	if len(ex.Stages) == 0 {
		t.Errorf("%s: no stages recorded", label)
	}
	return ex
}

func TestExplainPlainIndexAllAlgorithms(t *testing.T) {
	pts, ix, queries := snapshotFixture(t, 3000, 23)
	// size truncates every query group to its first size points; 0 keeps
	// the whole group.
	cases := []struct {
		name string
		size int
		opts []gnn.QueryOption
		chk  func(t *testing.T, ex *gnn.QueryExplain)
	}{
		{"MBM", 0, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithK(4)}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.Algorithm != "MBM" || ex.Trace.NodesVisited == 0 {
				t.Errorf("MBM explain: %+v", ex)
			}
			if ex.Trace.NodesPrunedH2+ex.Trace.NodesPrunedH3 == 0 {
				t.Errorf("MBM pruned nothing: %+v", ex.Trace)
			}
		}},
		{"auto-resolves-to-MBM", 0, []gnn.QueryOption{gnn.WithK(2)}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.Algorithm != "MBM" {
				t.Errorf("auto resolved to %q, want MBM", ex.Algorithm)
			}
		}},
		{"MBM-df", 0, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst(), gnn.WithK(4)}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.Trace.NodesVisited == 0 {
				t.Errorf("MBM-df explain: %+v", ex.Trace)
			}
		}},
		{"SPM", 0, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithK(4)}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.Algorithm != "SPM" || ex.Trace.NodesVisited == 0 {
				t.Errorf("SPM explain: %+v", ex)
			}
			if ex.Trace.NodesPrunedH1+ex.Trace.PointsPrunedH1 == 0 {
				t.Errorf("SPM heuristic 1 pruned nothing: %+v", ex.Trace)
			}
		}},
		{"SPM-df", 0, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithDepthFirst()}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.Trace.NodesPrunedH1+ex.Trace.PointsPrunedH1 == 0 {
				t.Errorf("SPM-df heuristic 1 pruned nothing: %+v", ex.Trace)
			}
		}},
		{"MQM", 0, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM), gnn.WithK(4)}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.Algorithm != "MQM" || ex.Trace.StreamAdvances == 0 {
				t.Errorf("MQM explain: %+v", ex)
			}
		}},
		{"brute", 0, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoBruteForce)}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.Trace.PointsScanned != len(pts) {
				t.Errorf("brute scanned %d points, want %d", ex.Trace.PointsScanned, len(pts))
			}
		}},
		{"MBM-max-meb", 0, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist)}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.MaxKernel != "meb" {
				t.Errorf("max kernel = %q, want meb", ex.MaxKernel)
			}
		}},
		{"MBM-max-generic", 0, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist), gnn.WithGenericMax()}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.MaxKernel != "generic" {
				t.Errorf("max kernel = %q, want generic", ex.MaxKernel)
			}
		}},
		// MBM runs the generic bounds on a one-point MAX group: its MEB
		// bound would only repeat heuristic 2.
		{"MBM-max-one-point", 1, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist)}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.MaxKernel != "generic" {
				t.Errorf("max kernel = %q, want generic", ex.MaxKernel)
			}
			if ex.Trace.NodesPrunedMEB+ex.Trace.PointsPrunedMEB != 0 {
				t.Errorf("one-point group pruned by MEB: %+v", ex.Trace)
			}
		}},
		{"MBM-region", 0, []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithRegion(gnn.Point{200, 200}, gnn.Point{700, 700})}, func(t *testing.T, ex *gnn.QueryExplain) {
			if ex.Trace.NodesVisited == 0 {
				t.Error("region MBM visited no nodes")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, q := range queries[:4] {
				if c.size > 0 {
					q = q[:c.size]
				}
				ex := requireExplainMatches(t, c.name, ix, q, c.opts...)
				if ex.Shards != 0 || ex.Overlay {
					t.Errorf("plain index explain has Shards=%d Overlay=%v", ex.Shards, ex.Overlay)
				}
				c.chk(t, ex)
			}
		})
	}
}

func TestExplainShardedIndex(t *testing.T) {
	pts, _, queries := snapshotFixture(t, 3000, 29)
	sx, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	for _, q := range queries[:4] {
		ex := requireExplainMatches(t, "sharded", sx, q, gnn.WithK(3))
		if ex.Shards != 4 {
			t.Errorf("Shards = %d, want 4", ex.Shards)
		}
		scatter, merge := 0, 0
		shardsSeen := map[int]bool{}
		for _, s := range ex.Stages {
			switch s.Name {
			case "scatter":
				scatter++
				shardsSeen[s.Shard] = true
			case "merge":
				merge++
			}
		}
		if scatter != 4 || len(shardsSeen) != 4 {
			t.Errorf("scatter stages = %d over shards %v, want 4 distinct", scatter, shardsSeen)
		}
		if merge != 1 {
			t.Errorf("merge stages = %d, want 1", merge)
		}
		if ex.Trace.NodesVisited == 0 {
			t.Errorf("sharded trace empty: %+v", ex.Trace)
		}
	}
}

func TestExplainMappedSnapshot(t *testing.T) {
	_, ix, queries := snapshotFixture(t, 2000, 31)
	path := writeSnapFile(t, t.TempDir(), "ix.snap", ix.WriteSnapshotFile)
	mapped, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	region := gnn.WithRegion(gnn.Point{200, 200}, gnn.Point{700, 700})
	for _, q := range queries[:4] {
		requireExplainMatches(t, "mapped", mapped, q, gnn.WithK(2))
		for _, algo := range []gnn.Algorithm{gnn.AlgoMBM, gnn.AlgoSPM} {
			_, got, err := mapped.GroupNNExplain(q, gnn.WithK(2), gnn.WithAlgorithm(algo), region)
			if err != nil {
				t.Fatalf("mapped region %v: %v", algo, err)
			}
			_, want, err := ix.GroupNNExplain(q, gnn.WithK(2), gnn.WithAlgorithm(algo), region)
			if err != nil {
				t.Fatal(err)
			}
			if got.Trace != want.Trace || got.Cost != want.Cost {
				t.Errorf("mapped region %v: trace %+v cost %+v, heap %+v %+v", algo, got.Trace, got.Cost, want.Trace, want.Cost)
			}
		}
	}
}

func TestExplainOverlay(t *testing.T) {
	pts, ix, queries := snapshotFixture(t, 2000, 37)
	// Mutate: inserts land in the delta, deletes tombstone base points.
	for i := 0; i < 40; i++ {
		if err := ix.Insert(gnn.Point{float64(i) * 21.3, float64(i) * 17.9}, int64(100000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		ix.Delete(pts[i*7], int64(i*7))
	}
	for _, q := range queries[:4] {
		ex := requireExplainMatches(t, "overlay", ix, q, gnn.WithK(3))
		if !ex.Overlay {
			t.Error("Overlay = false on a mutated index")
		}
		names := map[string]bool{}
		for _, s := range ex.Stages {
			names[s.Name] = true
		}
		if !names["base"] || !names["merge"] {
			t.Errorf("overlay stages missing base/merge: %v", names)
		}
	}

	// Sharded overlay: same discipline on the scattered index.
	sx, err := gnn.BuildShardedIndex(pts, nil, 3, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	for i := 0; i < 40; i++ {
		if err := sx.Insert(gnn.Point{float64(i) * 21.3, float64(i) * 17.9}, int64(200000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries[:4] {
		ex := requireExplainMatches(t, "sharded-overlay", sx, q, gnn.WithK(3))
		if !ex.Overlay {
			t.Error("sharded Overlay = false on a mutated index")
		}
		names := map[string]bool{}
		for _, s := range ex.Stages {
			names[s.Name] = true
		}
		if !names["base"] || !names["overlay-merge"] || !names["scatter"] {
			t.Errorf("sharded overlay stages missing: %v", names)
		}
	}
}

// TestExplainTraceOffBitIdentical pins the acceptance contract from the
// other side: attaching the probe must not change what any kernel
// returns, across algorithms × aggregates on the same workload.
func TestExplainTraceOffBitIdentical(t *testing.T) {
	_, ix, queries := snapshotFixture(t, 2500, 41)
	cells := [][]gnn.QueryOption{
		{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithK(5)},
		{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MaxDist), gnn.WithK(3)},
		{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MinDist), gnn.WithDepthFirst()},
		{gnn.WithAlgorithm(gnn.AlgoSPM), gnn.WithK(5)},
		{gnn.WithAlgorithm(gnn.AlgoMQM), gnn.WithAggregate(gnn.MaxDist)},
		{gnn.WithAlgorithm(gnn.AlgoBruteForce), gnn.WithK(5)},
	}
	for _, opts := range cells {
		for _, q := range queries {
			requireExplainMatches(t, "bit-identical", ix, q, opts...)
		}
	}
}

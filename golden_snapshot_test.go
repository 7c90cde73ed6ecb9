package gnn_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gnn"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden snapshot fixtures and locked query traces")

const (
	goldenSnapPath        = "testdata/golden_v2.snap"
	goldenShardedSnapPath = "testdata/golden_v2_sharded.snap"
	goldenTracePath       = "testdata/golden_v2_trace.json"
)

// goldenPoints derives the fixture data set from a hand-rolled LCG, so
// the bytes are reproducible on any platform and Go version (math/rand
// would tie the fixture to a generator implementation).
func goldenPoints(n int) []gnn.Point {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11) / float64(1<<53) * 1000
	}
	pts := make([]gnn.Point, n)
	for i := range pts {
		pts[i] = gnn.Point{next(), next()}
	}
	return pts
}

// goldenQueries are the locked query groups.
func goldenQueries() [][]gnn.Point {
	pts := goldenPoints(420) // same stream; slice disjoint ranges as groups
	return [][]gnn.Point{
		pts[400:403],
		pts[403:408],
		pts[408:416],
		{{10, 10}, {990, 990}},
		{{500, 500}, {510, 490}, {495, 505}, {505, 495}},
	}
}

// goldenCases is the locked algorithm grid.
type goldenCase struct {
	Name string `json:"name"`
	Algo string `json:"algo"`
	Agg  string `json:"agg"`
	DF   bool   `json:"depth_first,omitempty"`
	K    int    `json:"k"`
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"mqm_sum_k1", "MQM", "sum", false, 1},
		{"mqm_max_k3", "MQM", "max", false, 3},
		{"spm_sum_k4", "SPM", "sum", false, 4},
		{"mbm_sum_k1", "MBM", "sum", false, 1},
		{"mbm_sum_df_k4", "MBM", "sum", true, 4},
		{"mbm_min_k2", "MBM", "min", false, 2},
		{"brute_sum_k5", "brute", "sum", false, 5},
	}
}

func goldenOptions(c goldenCase) []gnn.QueryOption {
	opts := []gnn.QueryOption{gnn.WithK(c.K)}
	switch c.Algo {
	case "MQM":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoMQM))
	case "SPM":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoSPM))
	case "MBM":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoMBM))
	case "brute":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoBruteForce))
	}
	switch c.Agg {
	case "max":
		opts = append(opts, gnn.WithAggregate(gnn.MaxDist))
	case "min":
		opts = append(opts, gnn.WithAggregate(gnn.MinDist))
	}
	if c.DF {
		opts = append(opts, gnn.WithDepthFirst())
	}
	return opts
}

// Locked trace schema. Floats are stored as IEEE 754 bit patterns so the
// comparison is exact, not textual.
type goldenResult struct {
	ID    int64    `json:"id"`
	Point []uint64 `json:"point_bits"`
	Dist  uint64   `json:"dist_bits"`
}

type goldenAnswer struct {
	Case    string         `json:"case"`
	Query   int            `json:"query"`
	Results []goldenResult `json:"results"`
	NA      int64          `json:"node_accesses"`
	Logical int64          `json:"logical_accesses"`
}

type goldenTrace struct {
	FormatVersion int            `json:"format_version"`
	Points        int            `json:"points"`
	NodeCapacity  int            `json:"node_capacity"`
	ShardSizes    []int          `json:"shard_sizes"`
	Answers       []goldenAnswer `json:"answers"`
}

func toGoldenResults(rs []gnn.Result) []goldenResult {
	out := make([]goldenResult, len(rs))
	for i, r := range rs {
		g := goldenResult{ID: r.ID, Dist: math.Float64bits(r.Dist), Point: make([]uint64, len(r.Point))}
		for a, v := range r.Point {
			g.Point[a] = math.Float64bits(v)
		}
		out[i] = g
	}
	return out
}

const goldenN, goldenCap, goldenShards = 420, 8, 3

// TestSnapshotGoldenCompat is the format-compatibility gate: it loads
// the checked-in version-2 fixtures and verifies a locked query trace
// bit for bit. If a format change breaks this test, the change is
// incompatible — bump snapshot.Version consciously, regenerate the
// fixtures with `go test -run TestSnapshotGoldenCompat -update .`, and
// say so in the changelog; do NOT just refresh the files to make CI
// green on an unversioned layout change.
func TestSnapshotGoldenCompat(t *testing.T) {
	pts := goldenPoints(goldenN)
	if *updateGolden {
		writeGoldenFixtures(t, pts)
	}

	snapBytes, err := os.ReadFile(goldenSnapPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	ix, err := gnn.OpenSnapshot(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatalf("golden fixture no longer loads — snapshot format changed without a version bump? %v", err)
	}
	traceBytes, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace goldenTrace
	if err := json.Unmarshal(traceBytes, &trace); err != nil {
		t.Fatal(err)
	}
	if trace.Points != ix.Len() || ix.Len() != goldenN {
		t.Fatalf("fixture holds %d points, trace declares %d, want %d", ix.Len(), trace.Points, goldenN)
	}

	queries := goldenQueries()
	byName := map[string]goldenCase{}
	for _, c := range goldenCases() {
		byName[c.Name] = c
	}
	for _, want := range trace.Answers {
		c, ok := byName[want.Case]
		if !ok {
			t.Fatalf("trace case %q unknown to this build", want.Case)
		}
		res, cost, err := ix.GroupNNWithCost(queries[want.Query], goldenOptions(c)...)
		if err != nil {
			t.Fatalf("%s/q%d: %v", want.Case, want.Query, err)
		}
		got := goldenAnswer{
			Case: want.Case, Query: want.Query,
			Results: toGoldenResults(res),
			NA:      cost.NodeAccesses, Logical: cost.LogicalAccesses,
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/q%d: locked trace diverged\n got %+v\nwant %+v", want.Case, want.Query, got, want)
		}
	}

	// Canonical bytes: re-writing the loaded index reproduces the fixture.
	var rewritten bytes.Buffer
	if err := ix.WriteSnapshot(&rewritten); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten.Bytes(), snapBytes) {
		t.Error("re-written snapshot differs from the golden bytes (format drift)")
	}

	// Canonical build: bulk-loading the fixture's points reproduces both
	// fixtures byte for byte, so a loader change that moves one entry,
	// renumbers one page or rounds one MBR corner differently fails here.
	built, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: goldenCap})
	if err != nil {
		t.Fatal(err)
	}
	var builtBytes bytes.Buffer
	if err := built.WriteSnapshot(&builtBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(builtBytes.Bytes(), snapBytes) {
		t.Error("BuildIndex over the golden points writes bytes that differ from the golden fixture")
	}
	shardedBytes, err := os.ReadFile(goldenShardedSnapPath)
	if err != nil {
		t.Fatal(err)
	}
	sbuilt, err := gnn.BuildShardedIndex(pts, nil, goldenShards, gnn.IndexConfig{NodeCapacity: goldenCap})
	if err != nil {
		t.Fatal(err)
	}
	builtBytes.Reset()
	if err := sbuilt.WriteSnapshot(&builtBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(builtBytes.Bytes(), shardedBytes) {
		t.Error("BuildShardedIndex over the golden points writes bytes that differ from the golden sharded fixture")
	}

	// Mapped open: the zero-copy path must reproduce the same locked
	// trace — results, NA and logical accesses bit for bit — from the
	// same fixture bytes.
	mx, err := gnn.OpenSnapshotMapped(goldenSnapPath)
	if err != nil {
		t.Fatalf("golden fixture no longer maps: %v", err)
	}
	defer mx.Close()
	for _, want := range trace.Answers {
		c := byName[want.Case]
		res, cost, err := mx.GroupNNWithCost(queries[want.Query], goldenOptions(c)...)
		if err != nil {
			t.Fatalf("mapped %s/q%d: %v", want.Case, want.Query, err)
		}
		got := goldenAnswer{
			Case: want.Case, Query: want.Query,
			Results: toGoldenResults(res),
			NA:      cost.NodeAccesses, Logical: cost.LogicalAccesses,
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mapped %s/q%d: locked trace diverged\n got %+v\nwant %+v", want.Case, want.Query, got, want)
		}
	}

	// Sharded fixture: the partition must survive.
	sx, err := gnn.OpenSnapshotFile(goldenShardedSnapPath)
	if err != nil {
		t.Fatalf("golden sharded fixture no longer loads: %v", err)
	}
	if got := gnn.ShardSizes(sx); !reflect.DeepEqual(got, trace.ShardSizes) {
		t.Fatalf("sharded fixture partition %v, trace locks %v", got, trace.ShardSizes)
	}
	srs, err := sx.GroupNN(queries[4], gnn.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	prs, err := ix.GroupNN(queries[4], gnn.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srs, prs) {
		t.Fatalf("sharded fixture answers diverge from plain: %v vs %v", srs, prs)
	}

	// And the sharded fixture maps too, partition and answers intact.
	smx, err := gnn.OpenShardedSnapshotMapped(goldenShardedSnapPath)
	if err != nil {
		t.Fatalf("golden sharded fixture no longer maps: %v", err)
	}
	defer smx.Close()
	if got := gnn.ShardSizes(smx); !reflect.DeepEqual(got, trace.ShardSizes) {
		t.Fatalf("mapped sharded fixture partition %v, trace locks %v", got, trace.ShardSizes)
	}
	mrs, err := smx.GroupNN(queries[4], gnn.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mrs, prs) {
		t.Fatalf("mapped sharded fixture answers diverge from plain: %v vs %v", mrs, prs)
	}
}

// writeGoldenFixtures regenerates the checked-in fixtures from the
// deterministic point stream.
func writeGoldenFixtures(t *testing.T, pts []gnn.Point) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenSnapPath), 0o755); err != nil {
		t.Fatal(err)
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{NodeCapacity: goldenCap})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.WriteSnapshotFile(goldenSnapPath); err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, goldenShards, gnn.IndexConfig{NodeCapacity: goldenCap})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.WriteSnapshotFile(goldenShardedSnapPath); err != nil {
		t.Fatal(err)
	}

	// Lock the trace from a LOADED index, so the fixture records exactly
	// what future loads must reproduce.
	loaded, err := gnn.OpenSnapshotFile(goldenSnapPath)
	if err != nil {
		t.Fatal(err)
	}
	trace := goldenTrace{
		FormatVersion: 2, Points: loaded.Len(), NodeCapacity: goldenCap,
		ShardSizes: gnn.ShardSizes(sx),
	}
	for _, c := range goldenCases() {
		for qi, q := range goldenQueries() {
			res, cost, err := loaded.GroupNNWithCost(q, goldenOptions(c)...)
			if err != nil {
				t.Fatalf("%s/q%d: %v", c.Name, qi, err)
			}
			trace.Answers = append(trace.Answers, goldenAnswer{
				Case: c.Name, Query: qi,
				Results: toGoldenResults(res),
				NA:      cost.NodeAccesses, Logical: cost.LogicalAccesses,
			})
		}
	}
	data, err := json.MarshalIndent(trace, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenTracePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden fixtures regenerated under testdata/")
}

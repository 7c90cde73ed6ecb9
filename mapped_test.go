package gnn_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"gnn"
)

// writeSnapFile snapshots ix into dir and returns the file path.
func writeSnapFile(t *testing.T, dir, name string, write func(string) error) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedOpenEquivalence is the mapped differential gate: an index
// served zero-copy from the file mapping answers every algorithm ×
// aggregate × k cell — plus point-NN and the incremental iterator —
// with bit-identical results, Cost and node accesses to the same
// snapshot decoded onto the heap.
func TestMappedOpenEquivalence(t *testing.T) {
	_, ix, queries := snapshotFixture(t, 2500, 19)
	dir := t.TempDir()
	path := writeSnapFile(t, dir, "ix.snap", ix.WriteSnapshotFile)

	heap, err := gnn.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	if got, want := mapped.Stats(), heap.Stats(); got != want {
		t.Fatalf("stats diverged: %+v vs %+v", got, want)
	}
	if err := mapped.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	mlo, mhi, mok := mapped.Bounds()
	hlo, hhi, hok := heap.Bounds()
	if mok != hok || !reflect.DeepEqual(mlo, hlo) || !reflect.DeepEqual(mhi, hhi) {
		t.Fatalf("bounds diverged: %v %v vs %v %v", mlo, mhi, hlo, hhi)
	}

	type cell struct {
		name string
		opts []gnn.QueryOption
	}
	cells := []cell{
		{"MQM/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM)}},
		{"MQM/max", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMQM), gnn.WithAggregate(gnn.MaxDist)}},
		{"SPM", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoSPM)}},
		{"MBM/sum", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM)}},
		{"MBM/df", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithDepthFirst()}},
		{"MBM/min", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoMBM), gnn.WithAggregate(gnn.MinDist)}},
		{"brute", []gnn.QueryOption{gnn.WithAlgorithm(gnn.AlgoBruteForce)}},
	}
	for _, c := range cells {
		for qi, q := range queries {
			opts := append([]gnn.QueryOption{gnn.WithK(1 + qi%5)}, c.opts...)
			hr, hc, herr := heap.GroupNNWithCost(q, opts...)
			mr, mc, merr := mapped.GroupNNWithCost(q, opts...)
			requireSameAnswer(t, "mapped/"+c.name, hr, hc, herr, mr, mc, merr)
		}
	}
	for _, q := range queries {
		hr, hc, herr := heap.NearestNeighborsWithCost(q[0], 7)
		mr, mc, merr := mapped.NearestNeighborsWithCost(q[0], 7)
		requireSameAnswer(t, "mapped/NN", hr, hc, herr, mr, mc, merr)
	}
	hit, err := heap.GroupNNIterator(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	mit, err := mapped.GroupNNIterator(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		hn, hok := hit.Next()
		mn, mok := mit.Next()
		if hok != mok || !reflect.DeepEqual(hn, mn) {
			t.Fatalf("iterator step %d diverged", i)
		}
	}
	if hit.Cost() != mit.Cost() {
		t.Fatalf("iterator cost diverged: %+v vs %+v", hit.Cost(), mit.Cost())
	}
	hit.Close()
	mit.Close()

	// Disk-resident query sets run against the mapped arena too.
	var qpts []gnn.Point
	for _, q := range queries[:6] {
		qpts = append(qpts, q...)
	}
	for _, algo := range []gnn.DiskAlgorithm{gnn.DiskFMQM, gnn.DiskFMBM} {
		mkSet := func() *gnn.QuerySet {
			qs, err := gnn.NewQuerySet(qpts, gnn.QuerySetConfig{BlockPoints: 12})
			if err != nil {
				t.Fatal(err)
			}
			return qs
		}
		hr, hc, herr := heap.GroupNNFromSetWithCost(mkSet(), algo, gnn.WithK(4))
		mr, mc, merr := mapped.GroupNNFromSetWithCost(mkSet(), algo, gnn.WithK(4))
		requireSameAnswer(t, "mapped/"+algo.String(), hr, hc, herr, mr, mc, merr)
	}

	// A buffered mapped open replays the same hit/miss stream as a
	// buffered heap open.
	heapBuf, err := gnn.OpenSnapshotFile(path, gnn.WithSnapshotBuffer(32))
	if err != nil {
		t.Fatal(err)
	}
	mapBuf, err := gnn.OpenSnapshotMapped(path, gnn.WithSnapshotBuffer(32))
	if err != nil {
		t.Fatal(err)
	}
	defer mapBuf.Close()
	var hits int64
	for _, q := range queries {
		hr, hc, herr := heapBuf.GroupNNWithCost(q, gnn.WithK(3))
		mr, mc, merr := mapBuf.GroupNNWithCost(q, gnn.WithK(3))
		requireSameAnswer(t, "mapped/buffered", hr, hc, herr, mr, mc, merr)
		hits += mc.BufferHits
	}
	if hits == 0 {
		t.Fatal("expected buffer hits on the mapped index")
	}
}

// TestShardedMappedOpenEquivalence: the sharded zero-copy open preserves
// the partition and answers bit-identically to the heap-decoded set,
// under both the sequential and the full-parallel (resident worker)
// scatter paths.
func TestShardedMappedOpenEquivalence(t *testing.T) {
	pts, _, queries := snapshotFixture(t, 2200, 41)
	dir := t.TempDir()
	for _, shards := range []int{1, 3} {
		sx, err := gnn.BuildShardedIndex(pts, nil, shards, gnn.IndexConfig{NodeCapacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		path := writeSnapFile(t, dir, "sx.snap", sx.WriteSnapshotFile)
		heap, err := gnn.OpenShardedSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := gnn.OpenShardedSnapshotMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mapped.ShardSizes(), sx.ShardSizes()) {
			t.Fatalf("S=%d: partition changed: %v vs %v", shards, mapped.ShardSizes(), sx.ShardSizes())
		}
		if err := mapped.CheckInvariants(); err != nil {
			t.Fatalf("S=%d: %v", shards, err)
		}
		// WithShards(1) forces the sequential scatter — fully deterministic,
		// so results AND costs must match bit for bit. WithShards(8) >= S
		// routes through the resident per-shard workers, where per-shard
		// node accesses legitimately vary with bound-publication timing:
		// there only the results are compared.
		for qi, q := range queries {
			opts := []gnn.QueryOption{gnn.WithK(1 + qi%4), gnn.WithShards(1)}
			hr, hc, herr := heap.GroupNNWithCost(q, opts...)
			mr, mc, merr := mapped.GroupNNWithCost(q, opts...)
			requireSameAnswer(t, "sharded-mapped", hr, hc, herr, mr, mc, merr)
		}
		for qi, q := range queries {
			opts := []gnn.QueryOption{gnn.WithK(1 + qi%4), gnn.WithShards(8)}
			hr, herr := heap.GroupNN(q, opts...)
			mr, merr := mapped.GroupNN(q, opts...)
			if (herr == nil) != (merr == nil) {
				t.Fatalf("S=%d parallel: error diverged: %v vs %v", shards, herr, merr)
			}
			if !reflect.DeepEqual(hr, mr) {
				t.Fatalf("S=%d parallel: results diverged\nheap:   %v\nmapped: %v", shards, hr, mr)
			}
		}
		hit, err := heap.GroupNNIterator(queries[0])
		if err != nil {
			t.Fatal(err)
		}
		mit, err := mapped.GroupNNIterator(queries[0])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			hn, hok := hit.Next()
			mn, mok := mit.Next()
			if hok != mok || !reflect.DeepEqual(hn, mn) {
				t.Fatalf("S=%d: iterator step %d diverged", shards, i)
			}
		}
		hit.Close()
		mit.Close()
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMappedConcurrentQueries hammers one mapped sharded index from many
// goroutines through the resident-worker scatter path (this test is the
// race detector's main target for the engine).
func TestMappedConcurrentQueries(t *testing.T) {
	pts, _, queries := snapshotFixture(t, 1500, 55)
	sx, err := gnn.BuildShardedIndex(pts, nil, 3, gnn.IndexConfig{NodeCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := writeSnapFile(t, dir, "sx.snap", sx.WriteSnapshotFile)
	mapped, err := gnn.OpenShardedSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	want := make([][]gnn.Result, len(queries))
	for i, q := range queries {
		if want[i], err = sx.GroupNN(q, gnn.WithK(3), gnn.WithShards(8)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := (g + i) % len(queries)
				got, err := mapped.GroupNN(queries[qi], gnn.WithK(3), gnn.WithShards(8))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(got, want[qi]) {
					t.Errorf("goroutine %d: answer diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMappedCorruption locks the failure surface of the mapped open:
// frame damage fails at open with a typed error, payload damage is
// caught by the deferred checksums on the first query (never a fault),
// and WithEagerVerify moves that to the open.
func TestMappedCorruption(t *testing.T) {
	_, ix, queries := snapshotFixture(t, 800, 77)
	dir := t.TempDir()
	path := writeSnapFile(t, dir, "ix.snap", ix.WriteSnapshotFile)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every region: header, section table, mid-payload.
	for _, frac := range []float64{0, 0.01, 0.5, 0.99} {
		p := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(p, pristine[:int(float64(len(pristine))*frac)], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := gnn.OpenSnapshotMapped(p)
		if !errors.Is(err, gnn.ErrSnapshotTruncated) && !errors.Is(err, gnn.ErrSnapshotCorrupt) {
			t.Fatalf("truncated at %.0f%%: got %v", frac*100, err)
		}
	}

	// A flipped payload byte (inside the last section, past the frame
	// metadata): the lazy open succeeds, the first query — and every
	// later one — returns ErrSnapshotChecksum instead of panicking or
	// faulting, and WriteSnapshot refuses to launder the bytes.
	flipped := bytes.Clone(pristine)
	flipped[len(flipped)-2] ^= 0x40
	p := filepath.Join(dir, "flip.snap")
	if err := os.WriteFile(p, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	mx, err := gnn.OpenSnapshotMapped(p)
	if err != nil {
		t.Fatalf("lazy open of payload-corrupt snapshot should succeed: %v", err)
	}
	if _, _, err := mx.GroupNNWithCost(queries[0], gnn.WithK(2)); !errors.Is(err, gnn.ErrSnapshotChecksum) {
		t.Fatalf("first query on corrupt mapping: got %v, want ErrSnapshotChecksum", err)
	}
	if _, _, err := mx.NearestNeighborsWithCost(queries[0][0], 3); !errors.Is(err, gnn.ErrSnapshotChecksum) {
		t.Fatalf("second query on corrupt mapping: got %v", err)
	}
	if err := mx.CheckInvariants(); !errors.Is(err, gnn.ErrSnapshotChecksum) {
		t.Fatalf("CheckInvariants on corrupt mapping: got %v", err)
	}
	if err := mx.WriteSnapshot(&bytes.Buffer{}); !errors.Is(err, gnn.ErrSnapshotChecksum) {
		t.Fatalf("WriteSnapshot on corrupt mapping: got %v", err)
	}
	mx.Close()

	// WithEagerVerify surfaces the same corruption at open time.
	if _, err := gnn.OpenSnapshotMapped(p, gnn.WithEagerVerify()); !errors.Is(err, gnn.ErrSnapshotChecksum) {
		t.Fatalf("eager open of corrupt snapshot: got %v", err)
	}
	// And passes cleanly on the pristine file.
	ex, err := gnn.OpenSnapshotMapped(path, gnn.WithEagerVerify())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.GroupNN(queries[0], gnn.WithK(2)); err != nil {
		t.Fatal(err)
	}
	ex.Close()

	// Kind confusion is caught eagerly on the mapped path too.
	pts := goldenPoints(200)
	sx, err := gnn.BuildShardedIndex(pts, nil, 2, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spath := writeSnapFile(t, dir, "sx.snap", sx.WriteSnapshotFile)
	if _, err := gnn.OpenSnapshotMapped(spath); !errors.Is(err, gnn.ErrSnapshotKind) {
		t.Fatalf("sharded via plain mapped open: %v", err)
	}
	if _, err := gnn.OpenShardedSnapshotMapped(path); !errors.Is(err, gnn.ErrSnapshotKind) {
		t.Fatalf("plain via sharded mapped open: %v", err)
	}
	if _, err := gnn.OpenSnapshotMapped(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("missing file should error")
	}

	// Sharded lazy corruption follows the same contract.
	sdata, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	sdata[len(sdata)-2] ^= 0x40
	sp := filepath.Join(dir, "sflip.snap")
	if err := os.WriteFile(sp, sdata, 0o644); err != nil {
		t.Fatal(err)
	}
	smx, err := gnn.OpenShardedSnapshotMapped(sp)
	if err != nil {
		t.Fatalf("lazy sharded open of payload-corrupt snapshot should succeed: %v", err)
	}
	if _, err := smx.GroupNN([]gnn.Point{{1, 2}, {3, 4}}, gnn.WithK(2)); !errors.Is(err, gnn.ErrSnapshotChecksum) {
		t.Fatalf("first sharded query on corrupt mapping: got %v", err)
	}
	smx.Close()
	if _, err := gnn.OpenShardedSnapshotMapped(sp, gnn.WithEagerVerify()); !errors.Is(err, gnn.ErrSnapshotChecksum) {
		t.Fatalf("eager sharded open of corrupt snapshot: got %v", err)
	}
}

// TestMappedImmutable: a mapped index keeps its base arena immutable —
// writes land in the overlay without invalidating the serving state —
// and the dynamic-layout escape hatches are rejected with
// ErrMappedDynamic (GCP additionally refuses pending mutations with
// ErrPendingMutations).
func TestMappedImmutable(t *testing.T) {
	_, ix, queries := snapshotFixture(t, 600, 91)
	dir := t.TempDir()
	path := writeSnapFile(t, dir, "ix.snap", ix.WriteSnapshotFile)
	mx, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()

	// Writes go through the overlay: the mapped base keeps serving
	// packed, and queries see the mutation immediately.
	if err := mx.Insert(gnn.Point{1, 2}, 9001); err != nil {
		t.Fatalf("Insert on mapped index: %v", err)
	}
	if !mx.IsPacked() {
		t.Fatal("overlay writes must not invalidate the packed layout")
	}
	res, err := mx.GroupNN([]gnn.Point{{1, 2}}, gnn.WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 9001 {
		t.Fatalf("mapped query missed the overlay insert: %v", res)
	}
	qix, err := gnn.BuildIndex(queries[0], nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The disk family has no sound multi-source merge: pending mutations
	// are refused with a dedicated sentinel.
	if _, err := mx.GroupNNClosestPairs(qix, 0); !errors.Is(err, gnn.ErrPendingMutations) {
		t.Fatalf("GCP on mutated mapped index: %v", err)
	}
	// Deleting the overlay point drains the overlay entirely.
	if !mx.Delete(gnn.Point{1, 2}, 9001) {
		t.Fatal("Delete of overlay point should report true")
	}
	if mx.Delete(gnn.Point{1, 2}, 9001) {
		t.Fatal("second Delete should report false")
	}
	mx.Pack() // must be a no-op, not a rebuild from the (absent) dynamic nodes
	if _, err := mx.GroupNN(queries[0], gnn.WithK(2)); err != nil {
		t.Fatalf("query after drained overlay: %v", err)
	}

	if _, err := mx.GroupNN(queries[0], gnn.WithLayout(gnn.LayoutDynamic)); !errors.Is(err, gnn.ErrMappedDynamic) {
		t.Fatalf("LayoutDynamic on mapped index: %v", err)
	}
	if _, err := mx.GroupNNClosestPairs(qix, 0); !errors.Is(err, gnn.ErrMappedDynamic) {
		t.Fatalf("GCP on mapped index: %v", err)
	}
	if _, err := qix.GroupNNClosestPairs(mx, 0); !errors.Is(err, gnn.ErrMappedDynamic) {
		t.Fatalf("GCP with mapped query index: %v", err)
	}

	// Sharded: LayoutDynamic is rejected on a mapped set.
	pts := goldenPoints(300)
	sx, err := gnn.BuildShardedIndex(pts, nil, 2, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spath := writeSnapFile(t, dir, "sx.snap", sx.WriteSnapshotFile)
	smx, err := gnn.OpenShardedSnapshotMapped(spath)
	if err != nil {
		t.Fatal(err)
	}
	defer smx.Close()
	if _, err := smx.GroupNN(queries[0], gnn.WithLayout(gnn.LayoutDynamic)); !errors.Is(err, gnn.ErrMappedDynamic) {
		t.Fatalf("LayoutDynamic on mapped sharded index: %v", err)
	}
	if _, err := sx.GroupNN(queries[0], gnn.WithLayout(gnn.LayoutDynamic)); err != nil {
		t.Fatalf("LayoutDynamic on built sharded index must keep working: %v", err)
	}
}

// TestMappedClose locks the Close contract: idempotent, a no-op on
// non-mapped constructions, and queries after Close fail with
// ErrSnapshotClosed instead of touching unmapped memory.
func TestMappedClose(t *testing.T) {
	_, ix, queries := snapshotFixture(t, 500, 13)
	dir := t.TempDir()
	path := writeSnapFile(t, dir, "ix.snap", ix.WriteSnapshotFile)

	mx, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mx.GroupNN(queries[0], gnn.WithK(2)); err != nil {
		t.Fatal(err)
	}
	if err := mx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mx.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := mx.GroupNN(queries[0], gnn.WithK(2)); !errors.Is(err, gnn.ErrSnapshotClosed) {
		t.Fatalf("query after Close: got %v, want ErrSnapshotClosed", err)
	}
	if _, _, err := mx.NearestNeighborsWithCost(queries[0][0], 2); !errors.Is(err, gnn.ErrSnapshotClosed) {
		t.Fatalf("NN after Close: got %v", err)
	}
	if err := mx.WriteSnapshot(&bytes.Buffer{}); !errors.Is(err, gnn.ErrSnapshotClosed) {
		t.Fatalf("WriteSnapshot after Close: got %v", err)
	}
	if _, _, ok := mx.Bounds(); ok {
		t.Fatal("Bounds after Close should report not-ok")
	}

	// Close on built and heap-loaded indexes is a harmless no-op.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.GroupNN(queries[0], gnn.WithK(2)); err != nil {
		t.Fatalf("built index must keep serving after no-op Close: %v", err)
	}
	hx, err := gnn.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := hx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := hx.GroupNN(queries[0], gnn.WithK(2)); err != nil {
		t.Fatalf("heap-loaded index must keep serving after no-op Close: %v", err)
	}

	// Sharded Close: mapped queries fail afterwards; a built set keeps
	// serving (its resident workers just restart on demand).
	pts := goldenPoints(300)
	sx, err := gnn.BuildShardedIndex(pts, nil, 2, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spath := writeSnapFile(t, dir, "sx.snap", sx.WriteSnapshotFile)
	smx, err := gnn.OpenShardedSnapshotMapped(spath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smx.GroupNN(queries[0], gnn.WithK(2)); err != nil {
		t.Fatal(err)
	}
	if err := smx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := smx.Close(); err != nil {
		t.Fatalf("second sharded Close: %v", err)
	}
	if _, err := smx.GroupNN(queries[0], gnn.WithK(2)); !errors.Is(err, gnn.ErrSnapshotClosed) {
		t.Fatalf("sharded query after Close: got %v", err)
	}
	if err := sx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sx.GroupNN(queries[0], gnn.WithK(2), gnn.WithShards(8)); err != nil {
		t.Fatalf("built sharded index must keep serving after Close: %v", err)
	}
}

// TestMappedRewrite: a mapped index re-serialises to exactly the bytes
// it was opened from (the format is canonical, and the borrowed columns
// round-trip untouched).
func TestMappedRewrite(t *testing.T) {
	_, ix, _ := snapshotFixture(t, 700, 29)
	dir := t.TempDir()
	path := writeSnapFile(t, dir, "ix.snap", ix.WriteSnapshotFile)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	var out bytes.Buffer
	if err := mx.WriteSnapshot(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), pristine) {
		t.Fatal("mapped re-write differs from the opened bytes")
	}
}

// TestMappedEmpty: a snapshot of an empty index maps and serves.
func TestMappedEmpty(t *testing.T) {
	ix, err := gnn.NewIndex(gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := writeSnapFile(t, dir, "empty.snap", ix.WriteSnapshotFile)
	mx, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	if mx.Len() != 0 || mx.Dim() != 2 {
		t.Fatalf("mapped empty index: %d points, dim %d", mx.Len(), mx.Dim())
	}
	if res, err := mx.GroupNN([]gnn.Point{{1, 2}}); err != nil || len(res) != 0 {
		t.Fatalf("query on mapped empty index: %v, %v", res, err)
	}
	if _, _, ok := mx.Bounds(); ok {
		t.Fatal("empty index should have no bounds")
	}
}

// TestMappedRegionNeedsDynamic: region pruning of MBM, SPM and the
// iterator runs on the dynamic nodes, which a mapped index — and a
// compacted one, which stays packed-only — does not have. Those queries
// fail with ErrMappedDynamic, plain and sharded alike, instead of
// dereferencing the shell's missing root; MQM and brute force filter per
// point on the packed layout and keep answering exactly like a heap index
// over the same points.
func TestMappedRegionNeedsDynamic(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(53))
	pts := randGroup(rng, n)
	ins := randGroup(rng, 50)
	dir := t.TempDir()
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	path := writeSnapFile(t, dir, "ix.snap", ix.WriteSnapshotFile)
	spath := writeSnapFile(t, dir, "sx.snap", sx.WriteSnapshotFile)
	grown, err := gnn.BuildIndex(append(append([]gnn.Point(nil), pts...), ins...), nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}

	type regionQueryable interface {
		GroupNN(query []gnn.Point, opts ...gnn.QueryOption) ([]gnn.Result, error)
		GroupNNIterator(query []gnn.Point, opts ...gnn.QueryOption) (*gnn.Iterator, error)
		Insert(p gnn.Point, id int64) error
		Compact() error
		Close() error
	}
	openPlain := func() (regionQueryable, error) { return gnn.OpenSnapshotMapped(path) }
	openSharded := func() (regionQueryable, error) { return gnn.OpenShardedSnapshotMapped(spath) }
	group := []gnn.Point{{480, 500}, {520, 530}, {500, 470}}
	region := gnn.WithRegion(gnn.Point{300, 300}, gnn.Point{700, 700})
	for _, kind := range []struct {
		name    string
		open    func() (regionQueryable, error)
		compact bool
	}{
		{"mapped", openPlain, false},
		{"mapped-sharded", openSharded, false},
		{"compacted-mapped", openPlain, true},
		{"compacted-mapped-sharded", openSharded, true},
	} {
		t.Run(kind.name, func(t *testing.T) {
			mx, err := kind.open()
			if err != nil {
				t.Fatal(err)
			}
			defer mx.Close()
			ref := ix
			if kind.compact {
				for i, p := range ins {
					if err := mx.Insert(p, int64(n+i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := mx.Compact(); err != nil {
					t.Fatal(err)
				}
				ref = grown
			}
			for _, algo := range []gnn.Algorithm{gnn.AlgoAuto, gnn.AlgoMBM, gnn.AlgoSPM} {
				if _, err := mx.GroupNN(group, gnn.WithAlgorithm(algo), region); !errors.Is(err, gnn.ErrMappedDynamic) {
					t.Errorf("%v with a region: %v, want ErrMappedDynamic", algo, err)
				}
			}
			if it, err := mx.GroupNNIterator(group, region); !errors.Is(err, gnn.ErrMappedDynamic) {
				if it != nil {
					it.Close()
				}
				t.Errorf("iterator with a region: %v, want ErrMappedDynamic", err)
			}
			for _, algo := range []gnn.Algorithm{gnn.AlgoMQM, gnn.AlgoBruteForce} {
				opts := []gnn.QueryOption{gnn.WithAlgorithm(algo), region, gnn.WithK(4)}
				want, err := ref.GroupNN(group, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mx.GroupNN(group, opts...)
				if err != nil {
					t.Fatalf("%v with a region: %v", algo, err)
				}
				sameResults(t, kind.name+"/"+algo.String(), want, got)
			}
			// Unconstrained queries are untouched.
			if _, err := mx.GroupNN(group, gnn.WithAlgorithm(gnn.AlgoSPM)); err != nil {
				t.Fatalf("SPM without a region: %v", err)
			}
		})
	}
}

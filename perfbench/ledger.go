package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"gnn"
	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/mmapfile"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/server"
	"gnn/internal/snapshot"
)

const (
	// ledgerQueries is how many of the script's query groups every layer
	// answers; each is timed ledgerRounds times.
	ledgerQueries = 256
	ledgerRounds  = 2
	// ledgerShards is the shard count of the scatter/gather row on
	// workloads that serve a plain index (the sharded workload's own).
	ledgerShards = 4
	// defaultOverlay is the overlay size of the overlay and compaction
	// rows on workloads whose daemon runs no compactor.
	defaultOverlay = 256
	// compactCycles is how many Compact calls the cycle row times.
	compactCycles = 3
)

// e2eSummary is what the ledger takes from the end-to-end run.
type e2eSummary struct {
	p50US         float64
	setups        []setupTimes
	compactionGen uint64
}

// layerP50s are the per-call medians the self times subtract, in µs.
type layerP50s struct {
	kernel     float64 // core.MBM on the packed base
	query      float64 // Index.GroupNN on the plain index
	shardQuery float64 // ShardedIndex.GroupNN
	explain    float64 // GroupNNExplain on the index the daemon serves
	handler    float64 // the server's handler, no socket
	e2e        float64 // client-observed p50 over loopback
}

// selfTimes subtracts each layer's median from the median of the layer
// above it. The chain is kernel → index → (shard, when the daemon serves
// a sharded index) → server → wire; the server layer sits on
// GroupNNExplain, because that is what the daemon calls. unaccounted is
// the share of the end-to-end median the self times do not cover, which
// includes the explain premium over the plain query.
func selfTimes(l layerP50s, sharded bool) (index, shard, srv, wire, unaccounted float64) {
	index = l.query - l.kernel
	shard = l.shardQuery - l.query
	srv = l.handler - l.explain
	wire = l.e2e - l.handler
	sum := l.kernel + index + srv + wire
	if sharded {
		sum += shard
	}
	return index, shard, srv, wire, 1 - sum/l.e2e
}

// runLedger times the workload's queries at each layer boundary
// in-process, by calling each layer's exported functions, and returns the
// per-layer metrics. Layers are timed interleaved, query by query, so a
// drift of the host's speed shifts all of them alike.
func runLedger(w workloadSpec, pts []gnn.Point, ids []int64, s *script, dir string, e e2eSummary) (map[string]metric, error) {
	// Each query group as the public API, the kernel and the handler take it.
	qops := s.firstQueries(ledgerQueries)
	groups := make([][]gnn.Point, len(qops))
	ggroups := make([][]geom.Point, len(qops))
	bodies := make([][]byte, len(qops))
	for i, o := range qops {
		groups[i], bodies[i] = o.group, o.body
		ggroups[i] = make([]geom.Point, len(o.group))
		for j, p := range o.group {
			ggroups[i][j] = geom.Point(p)
		}
	}
	agg := gnn.SumDist
	if w.agg == "max" {
		agg = gnn.MaxDist
	}
	qopts := []gnn.QueryOption{gnn.WithK(w.k), gnn.WithAggregate(agg)}

	// Index and shard layers, opened the way the daemon opens them.
	shards := w.shards
	if shards == 0 {
		shards = ledgerShards
	}
	plainSnap := filepath.Join(dir, "ledger-plain.snap")
	shardSnap := filepath.Join(dir, "ledger-sharded.snap")
	if err := writeSnapshots(pts, ids, shards, plainSnap, shardSnap); err != nil {
		return nil, err
	}
	plain, err := gnn.OpenSnapshotMapped(plainSnap)
	if err != nil {
		return nil, err
	}
	defer plain.Close()
	sharded, err := gnn.OpenShardedSnapshotMapped(shardSnap)
	if err != nil {
		return nil, err
	}
	defer sharded.Close()
	// Kernel layer: the packed base the plain index wraps.
	base, closeBase, err := kernelBase(plainSnap)
	if err != nil {
		return nil, err
	}
	defer closeBase()
	kopts := core.Options{K: w.k, Aggregate: agg, Packed: base}
	var served server.Queryable = plain
	servedSnap := plainSnap
	if w.shards > 0 {
		served, servedSnap = sharded, shardSnap
	}

	// Server layer: the daemon's handler with its default configuration
	// and log level, output discarded.
	srv, err := server.New(server.Config{
		SnapshotPath: servedSnap,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	handler := srv.Handler()
	var respBytes int
	serve := func(path string, body []byte) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		respBytes += rec.Body.Len()
		return nil
	}

	calls := []struct {
		name string
		call func(i int) error
	}{
		{"kernel", func(i int) error {
			// A per-call cost tracker, as the index layer passes one.
			opt := kopts
			opt.Cost = &pagestore.CostTracker{}
			_, err := core.MBM(base.Tree(), ggroups[i], opt)
			return err
		}},
		{"query", func(i int) error { _, err := plain.GroupNN(groups[i], qopts...); return err }},
		{"shard", func(i int) error { _, err := sharded.GroupNN(groups[i], qopts...); return err }},
		{"explain", func(i int) error {
			_, _, err := served.GroupNNExplainContext(context.Background(), groups[i], qopts...)
			return err
		}},
		{"handler", func(i int) error { return serve(opQuery.path(), bodies[i]) }},
	}
	// One untimed pass forces the lazy snapshot verification and warms
	// the pools; the timed rounds follow. Each query starts at another
	// layer, so no layer always runs first on cold caches.
	samples := make([][]float64, len(calls))
	for round := range ledgerRounds + 1 {
		for i := range groups {
			for j := range calls {
				c := (i + j) % len(calls)
				lc := calls[c]
				t0 := time.Now()
				if err := lc.call(i); err != nil {
					return nil, fmt.Errorf("%s: %w", lc.name, err)
				}
				if round > 0 {
					samples[c] = append(samples[c], us(time.Since(t0)))
				}
			}
		}
	}
	p := layerP50s{
		kernel: median(samples[0]), query: median(samples[1]), shardQuery: median(samples[2]),
		explain: median(samples[3]), handler: median(samples[4]), e2e: e.p50US,
	}
	respBytes = 0
	allocs := make([]float64, len(calls))
	for c, lc := range calls {
		if allocs[c], err = allocsPerCall(len(groups), lc.call); err != nil {
			return nil, err
		}
	}
	resp := float64(respBytes) / float64(len(groups))

	// Pruning counters of the served index, and the shard NA ratio. The
	// MEB prunes come from depth-first MBM on the kernel layer: the
	// best-first traversal the daemon runs folds the MEB bound into its
	// heap keys, where a prune is no discrete event it could count.
	var exact, visited, meb float64
	var naPlain, naShard int64
	for i, g := range groups {
		_, ex, err := served.GroupNNExplainContext(context.Background(), g, qopts...)
		if err != nil {
			return nil, err
		}
		exact += float64(ex.Trace.ExactDistances)
		visited += float64(ex.Trace.NodesVisited)
		var tr core.Trace
		opt := kopts
		opt.Cost, opt.Trace, opt.Traversal = &pagestore.CostTracker{}, &tr, core.DepthFirst
		if _, err := core.MBM(base.Tree(), ggroups[i], opt); err != nil {
			return nil, err
		}
		meb += float64(tr.NodesPrunedMEB + tr.PointsPrunedMEB)
		_, c1, err := plain.GroupNNWithCost(g, qopts...)
		if err != nil {
			return nil, err
		}
		_, c2, err := sharded.GroupNNWithCost(g, qopts...)
		if err != nil {
			return nil, err
		}
		naPlain += c1.NodeAccesses
		naShard += c2.NodeAccesses
	}
	nq := float64(len(groups))

	var batch []float64
	for range 3 {
		t0 := time.Now()
		for _, br := range plain.GroupNNBatch(groups, qopts...) {
			if br.Err != nil {
				return nil, br.Err
			}
		}
		batch = append(batch, us(time.Since(t0))/nq)
	}

	writes := s.writes()
	ins, del, err := replayWrites(plainSnap, filepath.Join(dir, "ledger-rotate.snap"), writes, w.compactThreshold)
	if err != nil {
		return nil, err
	}
	overlayUS, cycleMS, err := overlayAndCompact(plainSnap, filepath.Join(dir, "ledger-compact.snap"), writes, groups, qopts, w.compactThreshold)
	if err != nil {
		return nil, err
	}
	var serverWrites []float64
	for _, o := range writes[:min(len(writes), 2000)] {
		t0 := time.Now()
		if err := serve(o.kind.path(), o.body); err != nil {
			return nil, err
		}
		serverWrites = append(serverWrites, us(time.Since(t0)))
	}

	var build, write, start, first []float64
	for _, st := range e.setups {
		build = append(build, st.build.Seconds())
		write = append(write, st.write.Seconds())
		start = append(start, st.start.Seconds())
		first = append(first, ms(st.firstQuery))
	}

	indexSelf, shardSelf, serverSelf, wireSelf, unaccounted := selfTimes(p, w.shards > 0)
	return map[string]metric{
		"core.kernel_us":          {p.kernel, "us"},
		"core.exact_dists":        {exact / nq, "count"},
		"core.nodes_visited":      {visited / nq, "count"},
		"core.meb_prunes":         {meb / nq, "count"},
		"core.allocs":             {allocs[0], "count"},
		"index.query_us":          {p.query, "us"},
		"index.self_us":           {indexSelf, "us"},
		"index.explain_us":        {p.explain, "us"},
		"index.allocs":            {allocs[1], "count"},
		"batch.query_us":          {median(batch), "us"},
		"shard.query_us":          {p.shardQuery, "us"},
		"shard.self_us":           {shardSelf, "us"},
		"shard.na_ratio":          {float64(naShard) / float64(naPlain), "ratio"},
		"shard.allocs":            {allocs[2], "count"},
		"index.insert_us":         {median(ins), "us"},
		"index.delete_us":         {median(del), "us"},
		"index.overlay_query_us":  {overlayUS, "us"},
		"compact.cycle_ms":        {cycleMS, "ms"},
		"compact.cycles":          {float64(e.compactionGen), "count"},
		"server.handler_us":       {p.handler, "us"},
		"server.self_us":          {serverSelf, "us"},
		"server.write_us":         {median(serverWrites), "us"},
		"server.allocs":           {allocs[4], "count"},
		"server.resp_bytes":       {resp, "bytes"},
		"wire.query_us":           {p.e2e, "us"},
		"wire.self_us":            {wireSelf, "us"},
		"rtree.build_s":           {median(build), "s"},
		"snapshot.write_s":        {median(write), "s"},
		"server.start_s":          {median(start), "s"},
		"snapshot.first_query_ms": {median(first), "ms"},
		"ledger.unaccounted_frac": {unaccounted, "ratio"},
	}, nil
}

// kernelBase opens the packed base of a plain snapshot exactly as
// OpenSnapshotMapped does, so the kernel can be called on it directly.
func kernelBase(path string) (*rtree.Packed, func() error, error) {
	mf, err := mmapfile.Open(path)
	if err != nil {
		return nil, nil, err
	}
	ad, err := snapshot.DecodeAdopted(mf.Data())
	if err != nil {
		mf.Close()
		return nil, nil, err
	}
	var p *rtree.Packed
	if ad.ZeroCopy {
		p, err = rtree.PackedFromSnapshotBorrowed(ad.Trees[0], ad.Manifest.Dim, rtree.Config{}, ad.Verify)
	} else {
		p, err = rtree.PackedFromSnapshot(ad.Trees[0], ad.Manifest.Dim, rtree.Config{})
	}
	if err == nil {
		err = p.Prepare()
	}
	if err != nil {
		mf.Close()
		return nil, nil, err
	}
	return p, mf.Close, nil
}

// writeSnapshots writes a plain and a sharded snapshot of the points.
func writeSnapshots(pts []gnn.Point, ids []int64, shards int, plainPath, shardPath string) error {
	ix, err := gnn.BuildIndex(pts, ids, gnn.IndexConfig{})
	if err != nil {
		return err
	}
	if err := ix.WriteSnapshotFile(plainPath); err != nil {
		return err
	}
	sx, err := gnn.BuildShardedIndex(pts, ids, shards, gnn.IndexConfig{})
	if err != nil {
		return err
	}
	defer sx.Close()
	return sx.WriteSnapshotFile(shardPath)
}

// allocsPerCall is the mean heap allocations per call over n calls.
func allocsPerCall(n int, call func(i int) error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		if err := call(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// apply performs one scripted write on an index.
func apply(ix *gnn.Index, o op) error {
	if o.kind == opInsert {
		return ix.Insert(o.p, o.id)
	}
	if !ix.Delete(o.p, o.id) {
		return fmt.Errorf("delete of id %d found nothing", o.id)
	}
	return nil
}

// replayWrites applies the script's writes to a fresh index opened like
// the daemon's, with the daemon's compactor when it runs one, and returns
// the per-call insert and delete times in µs.
func replayWrites(snap, rotate string, writes []op, threshold int) (ins, del []float64, err error) {
	ix, err := gnn.OpenSnapshotMapped(snap)
	if err != nil {
		return nil, nil, err
	}
	defer ix.Close()
	if threshold > 0 {
		if err := ix.StartCompactor(gnn.CompactorConfig{Threshold: threshold, Path: rotate}); err != nil {
			return nil, nil, err
		}
	}
	for _, o := range writes {
		t0 := time.Now()
		if err := apply(ix, o); err != nil {
			return nil, nil, err
		}
		d := us(time.Since(t0))
		if o.kind == opInsert {
			ins = append(ins, d)
		} else {
			del = append(del, d)
		}
	}
	return ins, del, nil
}

// overlayAndCompact fills a fresh index's overlay to the threshold size
// with the script's first writes, times the queries against it, then
// times compactCycles Compact calls, each after another threshold-size
// batch of writes, rotating the snapshot into rotate.
func overlayAndCompact(snap, rotate string, writes []op, groups [][]gnn.Point, qopts []gnn.QueryOption, threshold int) (overlayUS, cycleMS float64, err error) {
	if threshold == 0 {
		threshold = defaultOverlay
	}
	if len(writes) < threshold*compactCycles {
		return 0, 0, errors.New("script has too few writes for the compaction row")
	}
	ix, err := gnn.OpenSnapshotMapped(snap)
	if err != nil {
		return 0, 0, err
	}
	defer ix.Close()
	// A compactor that never triggers by itself sets the rotation path
	// for the manual Compact calls.
	if err := ix.StartCompactor(gnn.CompactorConfig{Threshold: math.MaxInt, Interval: time.Hour, Path: rotate}); err != nil {
		return 0, 0, err
	}
	for _, o := range writes[:threshold] {
		if err := apply(ix, o); err != nil {
			return 0, 0, err
		}
	}
	var qs []float64
	for _, g := range groups {
		t0 := time.Now()
		if _, err := ix.GroupNN(g, qopts...); err != nil {
			return 0, 0, err
		}
		qs = append(qs, us(time.Since(t0)))
	}
	var cycles []float64
	for c := range compactCycles {
		if c > 0 {
			for _, o := range writes[c*threshold : (c+1)*threshold] {
				if err := apply(ix, o); err != nil {
					return 0, 0, err
				}
			}
		}
		t0 := time.Now()
		if err := ix.Compact(); err != nil {
			return 0, 0, err
		}
		cycles = append(cycles, ms(time.Since(t0)))
	}
	return median(qs), median(cycles), nil
}

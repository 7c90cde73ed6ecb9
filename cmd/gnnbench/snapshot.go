package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"gnn"
	"gnn/internal/dataset"
	"gnn/internal/snapshot"
	"gnn/internal/workload"
)

// snapshotBench is the JSON schema of the -snapshot-out file
// (BENCH_snapshot.json): cold-start serving from a persisted snapshot
// versus re-bulk-loading the same index from raw points, with full
// format/layout provenance so the numbers stay attributable across
// revisions.
type snapshotBench struct {
	benchEnv
	// FormatVersion and Layout record what exactly was persisted: the
	// snapshot format version and the serving layout it deserialises to.
	FormatVersion int             `json:"format_version"`
	Layout        string          `json:"layout"`
	Results       []snapshotPoint `json:"results"`
}

type snapshotPoint struct {
	// Kind is "plain" or "sharded"; Shards is 0 for plain.
	Kind   string `json:"kind"`
	Shards int    `json:"shards"`
	// BuildSeconds rebuilds the index from raw points (bulk load + pack) —
	// the cold-start path without persistence.
	BuildSeconds float64 `json:"build_seconds"`
	// WriteSeconds serialises the index; SnapshotBytes is the file size.
	WriteSeconds  float64 `json:"write_seconds"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	// LoadSeconds cold-starts from the snapshot file (read + decode +
	// validate + rebuild dynamic nodes).
	LoadSeconds float64 `json:"load_seconds"`
	// SpeedupLoadVsBuild is BuildSeconds / LoadSeconds — the cold-start
	// win persistence buys.
	SpeedupLoadVsBuild float64 `json:"speedup_load_vs_build"`
	// Verified confirms the loaded index answered a query sample with
	// bit-identical results and costs to the built one.
	Verified bool `json:"verified"`
	// Mapped holds the zero-copy (mmap) open cells; present only when
	// the bench ran with -mmap.
	Mapped *mappedPoint `json:"mapped,omitempty"`
}

// mappedPoint measures the OpenSnapshotMapped path against the copying
// load of the same file: open latency (the lazy default defers checksums
// to the first query, so this is the instant-serving number), retained
// heap as a resident-set proxy (measured after the first query, so the
// deferred verification is charged), and serving throughput once warm.
type mappedPoint struct {
	// OpenSeconds maps the file and adopts the arena (frame validation
	// only); SpeedupVsLoad is LoadSeconds / OpenSeconds.
	OpenSeconds   float64 `json:"open_seconds"`
	SpeedupVsLoad float64 `json:"speedup_open_vs_load"`
	// LoadHeapBytes and OpenHeapBytes are the retained-heap deltas of a
	// copying load vs a mapped open, both taken after one query: the
	// mapped arena lives in shared file-backed pages and keeps no copy of
	// the points, so its private footprint is the open's fixed metadata.
	LoadHeapBytes int64 `json:"load_heap_bytes"`
	OpenHeapBytes int64 `json:"open_heap_bytes"`
	// QueriesSec serves the bench workload from the mapped index
	// (sequential, WithShards(1) on sharded kinds); LoadQueriesSec is the
	// same workload on the copy-loaded index — warm, they should match.
	QueriesSec     float64 `json:"queries_per_sec"`
	LoadQueriesSec float64 `json:"load_queries_per_sec"`
	// ParallelQueriesSec (sharded kinds only) scatters every query across
	// all shards' resident workers (WithShards(S)); ParallelSpeedup is
	// the ratio over the sequential mapped throughput. Interpret both
	// against the snapshot's num_cpu.
	ParallelQueriesSec float64 `json:"parallel_queries_per_sec,omitempty"`
	ParallelSpeedup    float64 `json:"parallel_speedup,omitempty"`
	// Verified confirms the mapped index answered the query sample with
	// bit-identical results and costs to the built one.
	Verified bool `json:"verified"`
}

// measureSeconds runs fn adaptively (at least minRounds, then until
// minWall) and returns the mean seconds per run.
func measureSeconds(fn func() error) (float64, error) {
	const minRounds, maxRounds, minWall = 3, 25, 1 * time.Second
	start := time.Now()
	rounds := 0
	for rounds < minRounds || (time.Since(start) < minWall && rounds < maxRounds) {
		if err := fn(); err != nil {
			return 0, err
		}
		rounds++
	}
	return time.Since(start).Seconds() / float64(rounds), nil
}

// runSnapshotBench measures cold-start load vs rebuild on a uniform
// n-point index (the acceptance workload: 100k points, load ≥ 10×
// faster than rebuild), for the plain index and a 4-shard ShardedIndex.
// With withMmap it additionally measures the zero-copy open path
// against the copying load of the same files.
func runSnapshotBench(n int, seed int64, outPath string, withMmap bool) error {
	d := dataset.GenerateUniform(fmt.Sprintf("uniform-%d", n), n, seed)
	pts := make([]gnn.Point, len(d.Points))
	for i, p := range d.Points {
		pts[i] = gnn.Point(p)
	}
	qs, err := workload.Generate(workload.Spec{
		N: benchGroupSize, AreaFraction: 0.08, Queries: 20,
		Workspace: dataset.Workspace(), Seed: seed,
	})
	if err != nil {
		return err
	}
	queries := make([][]gnn.Point, len(qs))
	for i, q := range qs {
		g := make([]gnn.Point, len(q.Points))
		for j, p := range q.Points {
			g[j] = gnn.Point(p)
		}
		queries[i] = g
	}

	dir, err := os.MkdirTemp("", "gnnbench-snapshot")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	snap := snapshotBench{
		benchEnv:      newBenchEnv(d.Name, n, 1.0),
		FormatVersion: snapshot.Version,
		Layout:        gnn.LayoutPacked.String(),
	}
	fmt.Printf("# cold-start: snapshot load vs rebuild — %d uniform points, format v%d\n\n", n, snapshot.Version)
	fmt.Printf("%-8s  %7s  %10s  %10s  %10s  %10s  %9s\n",
		"kind", "shards", "build s", "write s", "load s", "bytes", "speedup")

	type indexOps struct {
		kind       string
		shards     int
		build      func() (any, error)
		write      func(ix any, path string) error
		load       func(path string) (any, error)
		openMapped func(path string) (any, error)
		closeIx    func(ix any) error
		answer     func(ix any, q []gnn.Point) ([]gnn.Result, gnn.Cost, error)
		// answerPar scatters one query across all shards' resident
		// workers; nil for the plain index (it has no scatter path).
		answerPar func(ix any, q []gnn.Point) error
	}
	plain := indexOps{
		kind: "plain",
		build: func() (any, error) {
			return gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
		},
		write:      func(ix any, path string) error { return ix.(*gnn.Index).WriteSnapshotFile(path) },
		load:       func(path string) (any, error) { return gnn.OpenSnapshotFile(path) },
		openMapped: func(path string) (any, error) { return gnn.OpenSnapshotMapped(path) },
		closeIx:    func(ix any) error { return ix.(*gnn.Index).Close() },
		answer: func(ix any, q []gnn.Point) ([]gnn.Result, gnn.Cost, error) {
			return ix.(*gnn.Index).GroupNNWithCost(q, gnn.WithK(benchK))
		},
	}
	sharded := indexOps{
		kind: "sharded", shards: 4,
		build: func() (any, error) {
			return gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
		},
		write:      func(ix any, path string) error { return ix.(*gnn.ShardedIndex).WriteSnapshotFile(path) },
		load:       func(path string) (any, error) { return gnn.OpenShardedSnapshotFile(path) },
		openMapped: func(path string) (any, error) { return gnn.OpenShardedSnapshotMapped(path) },
		closeIx:    func(ix any) error { return ix.(*gnn.ShardedIndex).Close() },
		answer: func(ix any, q []gnn.Point) ([]gnn.Result, gnn.Cost, error) {
			return ix.(*gnn.ShardedIndex).GroupNNWithCost(q, gnn.WithK(benchK), gnn.WithShards(1))
		},
		answerPar: func(ix any, q []gnn.Point) error {
			_, err := ix.(*gnn.ShardedIndex).GroupNN(q, gnn.WithK(benchK), gnn.WithShards(4))
			return err
		},
	}

	for _, ops := range []indexOps{plain, sharded} {
		var built any
		buildS, err := measureSeconds(func() error {
			ix, err := ops.build()
			built = ix
			return err
		})
		if err != nil {
			return err
		}
		path := filepath.Join(dir, ops.kind+".snap")
		var writeS float64
		if writeS, err = measureSeconds(func() error { return ops.write(built, path) }); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		var loaded any
		loadS, err := measureSeconds(func() error {
			ix, err := ops.load(path)
			loaded = ix
			return err
		})
		if err != nil {
			return err
		}

		verified := true
		for _, q := range queries {
			br, bc, berr := ops.answer(built, q)
			lr, lc, lerr := ops.answer(loaded, q)
			if berr != nil || lerr != nil {
				return fmt.Errorf("verify: %v / %v", berr, lerr)
			}
			if !reflect.DeepEqual(br, lr) || bc != lc {
				verified = false
			}
		}
		if !verified {
			return fmt.Errorf("%s: snapshot-loaded index diverged from the built index", ops.kind)
		}

		pt := snapshotPoint{
			Kind: ops.kind, Shards: ops.shards,
			BuildSeconds: buildS, WriteSeconds: writeS, SnapshotBytes: fi.Size(),
			LoadSeconds: loadS, SpeedupLoadVsBuild: buildS / loadS, Verified: verified,
		}
		if withMmap {
			mp, err := measureMapped(ops.openMapped, ops.load, ops.closeIx,
				ops.answer, ops.answerPar, path, loadS, queries, built)
			if err != nil {
				return fmt.Errorf("%s mapped: %w", ops.kind, err)
			}
			pt.Mapped = mp
		}
		snap.Results = append(snap.Results, pt)
		fmt.Printf("%-8s  %7d  %10.4f  %10.4f  %10.4f  %10d  %8.1fx\n",
			pt.Kind, pt.Shards, pt.BuildSeconds, pt.WriteSeconds, pt.LoadSeconds, pt.SnapshotBytes, pt.SpeedupLoadVsBuild)
	}

	if withMmap {
		fmt.Printf("\n# mmap open vs copying load (lazy verify; heap deltas after first query)\n\n")
		fmt.Printf("%-8s  %10s  %9s  %12s  %12s  %11s  %11s\n",
			"kind", "open s", "speedup", "load heap", "mmap heap", "qps", "par qps")
		for _, pt := range snap.Results {
			m := pt.Mapped
			if m == nil {
				continue
			}
			par := "-"
			if m.ParallelQueriesSec > 0 {
				par = fmt.Sprintf("%11.1f", m.ParallelQueriesSec)
			}
			fmt.Printf("%-8s  %10.6f  %8.1fx  %12d  %12d  %11.1f  %11s\n",
				pt.Kind, m.OpenSeconds, m.SpeedupVsLoad, m.LoadHeapBytes, m.OpenHeapBytes, m.QueriesSec, par)
		}
	}
	return writeBenchJSON(outPath, snap)
}

// measureMapped produces one mappedPoint: open latency, retained-heap
// deltas, warm serving throughput, and (sharded) the full-scatter
// throughput, verifying the mapped answers against the built index.
func measureMapped(
	openMapped, load func(string) (any, error),
	closeIx func(any) error,
	answer func(any, []gnn.Point) ([]gnn.Result, gnn.Cost, error),
	answerPar func(any, []gnn.Point) error,
	path string, loadS float64,
	queries [][]gnn.Point,
	built any,
) (*mappedPoint, error) {
	// Open latency: map + adopt, closing each round's mapping so file
	// descriptors don't accumulate across the adaptive rounds.
	var mapped any
	openS, err := measureSeconds(func() error {
		if mapped != nil {
			if err := closeIx(mapped); err != nil {
				return err
			}
		}
		ix, err := openMapped(path)
		mapped = ix
		return err
	})
	if err != nil {
		return nil, err
	}
	defer closeIx(mapped)

	// Verify before measuring throughput: the mapped index must answer
	// the sample bit-identically (results and per-query cost) to the
	// built one. This also forces the deferred verification, so the
	// timed passes below measure warm serving.
	for _, q := range queries {
		br, bc, berr := answer(built, q)
		mr, mc, merr := answer(mapped, q)
		if berr != nil || merr != nil {
			return nil, fmt.Errorf("verify: %v / %v", berr, merr)
		}
		if !reflect.DeepEqual(br, mr) || bc != mc {
			return nil, fmt.Errorf("mapped index diverged from the built index")
		}
	}

	// Retained-heap deltas, both charged after one query so the mapped
	// side pays its lazy verification and point-view slab.
	heapAfterQuery := func(open func(string) (any, error)) (int64, error) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := open(path)
		if err != nil {
			return 0, err
		}
		if _, _, err := answer(ix, queries[0]); err != nil {
			return 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		runtime.KeepAlive(ix)
		return delta, closeIx(ix)
	}
	loadHeap, err := heapAfterQuery(load)
	if err != nil {
		return nil, err
	}
	openHeap, err := heapAfterQuery(openMapped)
	if err != nil {
		return nil, err
	}

	// Warm serving throughput, mapped vs copy-loaded.
	qps := func(ix any) (float64, error) {
		secs, err := measureSeconds(func() error {
			for _, q := range queries {
				if _, _, err := answer(ix, q); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return float64(len(queries)) / secs, nil
	}
	mappedQPS, err := qps(mapped)
	if err != nil {
		return nil, err
	}
	loaded, err := load(path)
	if err != nil {
		return nil, err
	}
	loadedQPS, err := qps(loaded)
	if err != nil {
		return nil, err
	}
	if err := closeIx(loaded); err != nil {
		return nil, err
	}

	mp := &mappedPoint{
		OpenSeconds: openS, SpeedupVsLoad: loadS / openS,
		LoadHeapBytes: loadHeap, OpenHeapBytes: openHeap,
		QueriesSec: mappedQPS, LoadQueriesSec: loadedQPS,
		Verified: true,
	}
	if answerPar != nil {
		secs, err := measureSeconds(func() error {
			for _, q := range queries {
				if err := answerPar(mapped, q); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		mp.ParallelQueriesSec = float64(len(queries)) / secs
		mp.ParallelSpeedup = mp.ParallelQueriesSec / mappedQPS
	}
	return mp, nil
}

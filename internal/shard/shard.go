// Package shard holds an index's base, the structure every query
// traverses, and the two ways of running a query over it.
//
// A Set is either one unpartitioned packed arena (Pack), the base of a
// plain index, or a Hilbert partition of the data set into S independent
// packed R-trees (Build, rtree.PackSTRPartitioned): sorting by Hilbert
// value and cutting the curve into S runs yields spatially coherent
// shards, so a query group's neighborhood usually concentrates in few
// shards and the rest prune quickly. The set alone tells the two apart:
// Search, NewIterator, Rebuild and WriteSnapshot run the one arena
// directly or scatter over the shards, and everything else serves both
// alike.
//
// A scattered query runs the same unmodified MQM/SPM/MBM/brute kernel
// against every shard — sequentially on the caller's goroutine, or over a
// small pool of goroutines (core.RunPooled) — with three pieces of
// per-shard state:
//
//   - its own arena and rtree.Reader (via core.Options.Packed per
//     shard), so traversals never contend;
//   - its own pagestore.CostTracker, summed into the query's tracker at
//     gather time, so reported cost is exactly the sum of per-shard node
//     accesses (and the shared Accountant keeps the index-wide aggregate
//     consistent as always);
//   - the query's core.SharedBound, through which shards exchange their
//     current k-th best distance and prune each other's search space.
//
// The gather half (core.MergeNeighbors) k-way-merges the per-shard
// ascending result lists into the global k best. The merged answer is
// provably identical to an unsharded search regardless of worker timing
// (see core.SharedBound); only per-shard node-access counts vary with
// when bounds get published, and only under concurrent scatter. A set
// owns no goroutine: a parallel scatter's workers finish before it
// returns.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// ErrPartitioned reports an operation that needs the one arena of an
// unpartitioned set — a point-NN query, the disk-resident family and the
// group closest pairs — run on a partitioned set.
var ErrPartitioned = errors.New("shard: operation needs an unpartitioned index")

// Set is an index's immutable base: one unpartitioned arena (Pack) or a
// Hilbert partition into shards (Build), each shard an independent packed
// R-tree over a Hilbert-contiguous run of the data set. Any number of
// queries may run against it concurrently.
type Set struct {
	arenas []*rtree.Packed
	dim    int
	size   int
	// partitioned is set by Build and by sharded snapshots; an
	// unpartitioned set holds exactly one arena and never scatters.
	partitioned bool
}

// Prepare forces the deferred verification of every arena loaded from a
// snapshot (SetFromSnapshotBorrowed); a no-op on built sets. Queries
// require a prior successful Prepare on loaded sets; the public layer
// calls it on each query entry.
func (s *Set) Prepare() error {
	for _, p := range s.arenas {
		if err := p.Prepare(); err != nil {
			return err
		}
	}
	return nil
}

// Pack STR-packs the points of an axis-major coordinate buffer (with
// their ids; nil numbers them from 0) into one unpartitioned arena
// (rtree.PackSTR, which takes both buffers over).
func Pack(cfg rtree.Config, cols []float64, ids []int64) (*Set, error) {
	p, err := rtree.PackSTR(cfg, cols, ids)
	if err != nil {
		return nil, err
	}
	return single(p), nil
}

// single wraps one arena as an unpartitioned set.
func single(p *rtree.Packed) *Set {
	return &Set{arenas: []*rtree.Packed{p}, dim: p.Dim(), size: p.Len()}
}

// Build partitions the points of an axis-major coordinate buffer (with
// their ids; nil numbers them from 0) into the requested number of
// shards and packs each one (rtree.PackSTRPartitioned), which takes
// both buffers over: every shard's arena adopts its run of them. All
// shards share cfg.Accountant and use disjoint page ID ranges.
func Build(cfg rtree.Config, cols []float64, ids []int64, shards int) (*Set, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: %d shards; need at least 1", shards)
	}
	ps, err := rtree.PackSTRPartitioned(cfg, cols, ids, shards)
	if err != nil {
		return nil, err
	}
	s := &Set{arenas: ps, dim: ps[0].Dim(), partitioned: true}
	for _, p := range ps {
		s.size += p.Len()
	}
	return s, nil
}

// Rebuild packs cols and ids (taken over, as by Pack and Build) into a
// fresh set of this set's kind and geometry: one arena, or as many
// shards as this set has. Compaction and snapshots of a view with
// overlay writes fold the live points through it.
func (s *Set) Rebuild(cols []float64, ids []int64) (*Set, error) {
	if s.partitioned {
		return Build(s.Config(), cols, ids, len(s.arenas))
	}
	return Pack(s.Config(), cols, ids)
}

// Config returns the configuration a rebuild packs with: the arenas'
// shared geometry and accountant, with the page range starting at 0.
func (s *Set) Config() rtree.Config {
	cfg := s.arenas[0].Tree().Config()
	cfg.FirstPage = 0
	return cfg
}

// Shards returns the shard count of a partitioned set, 0 for an
// unpartitioned one.
func (s *Set) Shards() int {
	if !s.partitioned {
		return 0
	}
	return len(s.arenas)
}

// Len returns the total number of indexed points.
func (s *Set) Len() int { return s.size }

// Arena returns the one arena of an unpartitioned set, or ErrPartitioned.
func (s *Set) Arena() (*rtree.Packed, error) {
	if s.partitioned {
		return nil, ErrPartitioned
	}
	return s.arenas[0], nil
}

// CountExact returns the multiplicity of (p, id) across all arenas. Like
// rtree's CountExact it charges nothing — it is the overlay's tombstone
// bookkeeping, not a query.
func (s *Set) CountExact(p geom.Point, id int64) int {
	n := 0
	for _, a := range s.arenas {
		n += a.CountExact(p, id)
	}
	return n
}

// Arenas returns the packed arenas in shard order: the set's own slice,
// which callers must not modify. A borrowed set must pass Prepare before
// their columns are read.
func (s *Set) Arenas() []*rtree.Packed { return s.arenas }

// Bounds returns the MBR of every indexed point; ok is false when the
// set is empty.
func (s *Set) Bounds() (r geom.Rect, ok bool) {
	for _, p := range s.arenas {
		b, has := p.Bounds()
		switch {
		case !has:
		case ok:
			r = r.Union(b)
		default:
			r, ok = b, true
		}
	}
	return r, ok
}

// CheckInvariants validates every arena's R-tree structure; a shard's
// error names the shard.
func (s *Set) CheckInvariants() error {
	for i, p := range s.arenas {
		if err := p.Tree().CheckInvariants(); err != nil {
			if s.partitioned {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			return err
		}
	}
	return nil
}

// Kernel is a core query entry point (core.MQM, core.SPM, core.MBM,
// core.BruteForce) run identically against every shard.
type Kernel func(t *rtree.Tree, qs []geom.Point, opt core.Options) ([]core.GroupNeighbor, error)

// shardRun is the per-shard slot of one scattered query: its result list,
// its own cost tracker, and — when the query is traced — its own trace
// and wall time (kernels must never share any of these; a query-wide
// Trace written by concurrent workers would race). The slots sit in one
// slice written by concurrent shard workers, so each is padded out to
// its own cache line — a worker bumping its tracker must not bounce the
// line under its neighbour.
type shardRun struct {
	list  []core.GroupNeighbor
	tk    pagestore.CostTracker
	err   error
	trace core.Trace
	dur   time.Duration
	_     [64]byte
}

// Search answers one k-best query. On an unpartitioned set it runs
// kernel on the one arena directly: no per-shard slots and no merge,
// timed as the "query" stage unless the search is one source of a
// caller's merge (opt.Shared set), which the caller times. A partitioned
// set scatters (see scatter).
func (s *Set) Search(qs []geom.Point, opt core.Options, workers int, kernel Kernel) ([]core.GroupNeighbor, error) {
	if s.partitioned {
		return s.scatter(qs, opt, workers, kernel)
	}
	p := s.arenas[0]
	opt.Packed = p
	timed := opt.Stages != nil && opt.Shared == nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	gs, err := kernel(p.Tree(), qs, opt)
	if err != nil {
		return nil, err
	}
	if timed {
		opt.Stages.Record("query", -1, time.Since(start))
	}
	return gs, nil
}

// MergeStage names the stage of a caller's k-way merge of this set's
// answer with other sources: "merge" on an unpartitioned set, whose
// search records no merge of its own, and "overlay-merge" on a
// partitioned one, to tell it from the scatter's "merge".
func (s *Set) MergeStage() string {
	if s.partitioned {
		return "overlay-merge"
	}
	return "merge"
}

// scatter answers one k-best query by scatter-gather: kernel runs against
// every shard with a fresh SharedBound wiring the shards together, then
// the per-shard lists merge into the global k best and the per-shard
// trackers sum into opt.Cost. workers caps the concurrent shard workers:
// 0 means one per available core (GOMAXPROCS). A width of one (or a
// one-shard set) scatters sequentially on the caller's goroutine, reusing
// opt.Exec (the batch engine's warm per-worker context) and carrying the
// bound from shard to shard; a wider one runs the shards concurrently on
// core.RunPooled's transient workers for latency. The merged result does
// not depend on workers or timing. Each shard runs on its own arena
// (Options.Packed). A traced scatter records one "scatter" stage per
// shard and a "merge".
func (s *Set) scatter(qs []geom.Point, opt core.Options, workers int, kernel Kernel) ([]core.GroupNeighbor, error) {
	n := len(s.arenas)
	k := opt.K
	if k == 0 {
		k = 1
	}
	// Adopt a caller-supplied bound (the overlay read path threads one
	// bound through base shards, delta tree and pending scan) or create
	// the scatter's own.
	bound := opt.Shared
	if bound == nil {
		bound = core.NewSharedBound()
	}
	// Diagnostics are per-shard state like the cost tracker: a traced
	// scatter redirects each worker into its run slot's private trace and
	// merges at gather time; stage timing rides the same flag machinery.
	traced := opt.Trace != nil
	timed := opt.Stages != nil
	runs := make([]shardRun, n)
	runShard := func(i int, ec *core.ExecContext) {
		o := opt
		o.Cost = &runs[i].tk
		o.Shared = bound
		// A CancelCheck is single-goroutine state: each shard of the
		// scatter polls the same context through its own fork.
		o.Cancel = opt.Cancel.Fork()
		o.Trace = nil
		o.Stages = nil
		if traced {
			o.Trace = &runs[i].trace
		}
		o.Exec = ec
		var start time.Time
		if timed {
			start = time.Now()
		}
		runs[i].list, runs[i].err = runKernel(kernel, s.arenas[i], qs, o)
		if timed {
			runs[i].dur = time.Since(start)
		}
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if min(workers, n) <= 1 {
		// Sequential scatter reuses the caller's warm context (the batch
		// engine's per-worker arena) instead of cycling the pool.
		ec := opt.Exec
		if ec == nil {
			ec = core.AcquireExec()
			defer ec.Release()
		}
		for i := range n {
			runShard(i, ec)
		}
	} else {
		core.RunPooled(n, workers, runShard)
	}
	lists := make([][]core.GroupNeighbor, n)
	for i := range runs {
		if runs[i].err != nil {
			return nil, runs[i].err
		}
		if opt.Cost != nil {
			opt.Cost.Add(runs[i].tk)
		}
		// Gather runs on one goroutine, so the per-shard diagnostics fold
		// into the query-wide sinks without synchronisation.
		opt.Trace.Merge(&runs[i].trace)
		if timed {
			opt.Stages.Record("scatter", i, runs[i].dur)
		}
		lists[i] = runs[i].list
	}
	var mergeStart time.Time
	if timed {
		mergeStart = time.Now()
	}
	merged := core.MergeNeighbors(k, lists)
	if timed {
		opt.Stages.Record("merge", -1, time.Since(mergeStart))
	}
	return merged, nil
}

// runKernel invokes the kernel on arena p with per-shard panic
// containment: a panic inside a traversal (a corrupt arena that slipped
// past validation, a bug in a kernel) becomes that shard's error instead
// of killing the process. The serving layer depends on this to turn
// kernel panics into 500s.
func runKernel(kernel Kernel, p *rtree.Packed, qs []geom.Point, o core.Options) (res []core.GroupNeighbor, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("shard: kernel panic: %v", r)
		}
	}()
	o.Packed = p
	return kernel(p.Tree(), qs, o)
}

// Iterator merges ascending-distance streams — the per-shard incremental
// GNN scans of a partitioned set, or an overlay's sources — into one
// globally ascending stream. The merge is lazy: a stream is only advanced
// when its current lower bound (the peek of its best-first heap) is the
// smallest among all streams, so far-away shards pay almost no node
// accesses until the scan actually reaches their territory. Use from a
// single goroutine, like every iterator; any number of Iterators may run
// concurrently.
type Iterator struct {
	its   []core.Stream
	heads []iterHead
}

// iterHead is the merge state of one stream: either an exact buffered
// result (exact == true; key is its distance) or a lower bound on
// whatever the stream yields next (exact == false; key is the peek).
type iterHead struct {
	res   core.GroupNeighbor
	key   float64
	exact bool
	done  bool
}

// NewIterator starts an incremental scan: the arena's own
// core.GNNIterator on an unpartitioned set, or the lazy merge of the
// per-shard scans on a partitioned one. Every per-shard iterator charges
// opt.Cost (safe: the merge advances them from the caller's goroutine
// only), so the iterator's reported cost is exactly the sum of per-shard
// node accesses. Constructing it reads every shard's root.
func (s *Set) NewIterator(qs []geom.Point, opt core.Options) (core.Stream, error) {
	if !s.partitioned {
		p := s.arenas[0]
		opt.Packed = p
		it, err := core.NewGNNIterator(p.Tree(), qs, opt)
		if err != nil {
			return nil, err
		}
		return it, nil
	}
	streams := make([]core.Stream, len(s.arenas))
	for i, p := range s.arenas {
		o := opt
		o.Packed = p
		sub, err := core.NewGNNIterator(p.Tree(), qs, o)
		if err != nil {
			for _, open := range streams[:i] {
				open.Close()
			}
			return nil, err
		}
		streams[i] = sub
	}
	return NewMergedIterator(streams), nil
}

// Next returns the next group nearest neighbor across all shards in
// ascending aggregate distance; ok is false when every shard is
// exhausted. Ties between shards resolve to the lower shard index, so the
// stream is deterministic.
func (it *Iterator) Next() (core.GroupNeighbor, bool) {
	for {
		pick := -1
		var key float64
		for i := range it.heads {
			h := &it.heads[i]
			if h.done {
				continue
			}
			if pick == -1 || h.key < key {
				pick, key = i, h.key
			}
		}
		if pick == -1 {
			return core.GroupNeighbor{}, false
		}
		h := &it.heads[pick]
		if h.exact {
			// Smallest key is an exact result: every other shard's next
			// result is at least its own key ≥ this one, so emit it and
			// refill this shard's head with its new lower bound.
			g := h.res
			h.res = core.GroupNeighbor{}
			if d, ok := it.its[pick].PeekDist(); ok {
				h.key, h.exact = d, false
			} else {
				h.done = true
			}
			return g, true
		}
		// Smallest key is only a bound: advance that shard to an exact
		// result (its distance may well exceed another shard's key, which
		// the next pass of the loop then prefers).
		g, ok := it.its[pick].Next()
		if !ok {
			h.done = true
			continue
		}
		h.res, h.key, h.exact = g, g.Dist, true
	}
}

// PeekDist returns a lower bound on the distance of the next result; ok
// is false when the scan is exhausted.
func (it *Iterator) PeekDist() (float64, bool) {
	d, ok := 0.0, false
	for i := range it.heads {
		h := &it.heads[i]
		if h.done {
			continue
		}
		if !ok || h.key < d {
			d, ok = h.key, true
		}
	}
	return d, ok
}

// Close releases every per-shard iterator's pooled scratch. Idempotent.
func (it *Iterator) Close() {
	for i, sub := range it.its {
		if sub != nil {
			sub.Close()
		}
		it.its[i] = nil
		it.heads[i].done = true
	}
}

// NewMergedIterator merges arbitrary ascending-distance candidate streams
// (see Iterator): a partitioned set's per-shard scans, or an overlay
// index's base, delta and pending streams. The merge takes ownership of
// the streams: Close closes them all, and a nil stream slot is skipped.
func NewMergedIterator(streams []core.Stream) *Iterator {
	it := &Iterator{
		its:   streams,
		heads: make([]iterHead, len(streams)),
	}
	for i, sub := range streams {
		if sub == nil {
			it.heads[i].done = true
			continue
		}
		if d, ok := sub.PeekDist(); ok {
			it.heads[i].key = d
		} else {
			it.heads[i].done = true
		}
	}
	return it
}

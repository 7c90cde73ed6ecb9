// Package shard implements sharded scatter-gather execution of GNN
// queries, the horizontal-scale twin of the single-tree read path.
//
// The data set is Hilbert-partitioned into S independent packed R-trees
// (rtree.PackSTRPartitioned): sorting by Hilbert value and cutting
// the curve into S runs yields spatially coherent shards, so a query
// group's neighborhood usually concentrates in few shards and the rest
// prune quickly. A query then runs the same unmodified MQM/SPM/MBM/brute
// kernel against every shard — scattered over a small worker pool or
// sequentially — with three pieces of per-shard state:
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
// when bounds get published, and only under concurrent scatter.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// Unit is one shard: an independent R-tree over a Hilbert-contiguous
// slice of the data set, with its immutable packed snapshot.
type Unit struct {
	Tree   *rtree.Tree
	Packed *rtree.Packed
}

// Set is a Hilbert-partitioned collection of shards built once over a
// point set. It is immutable after Build, so any number of queries may
// run against it concurrently.
type Set struct {
	units []Unit
	dim   int
	size  int

	// Shard-per-core scatter executor, started lazily by the first fully
	// parallel scatter and stopped by Close (or by a GC cleanup when the
	// Set becomes unreachable without one).
	engMu  sync.Mutex
	eng    *engine
	closed bool
}

// acquireEngine returns the running scatter executor with one scatter
// lease held, starting it on first use; nil after Close (callers then
// fall back to pooled scatter). The lease (release it with eng.release)
// is what lets Close drain inflight scatters instead of closing the
// worker channels under them.
func (s *Set) acquireEngine() *engine {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	if s.closed {
		return nil
	}
	if s.eng == nil {
		s.eng = newEngine(len(s.units))
		// Backstop for callers that drop the Set without Close: the
		// cleanup must not reference s (it would never become
		// unreachable), only the engine.
		runtime.AddCleanup(s, func(e *engine) { e.close() }, s.eng)
	}
	// Under engMu and before the closed flag flips, so no lease can be
	// taken once Close has started waiting.
	s.eng.scatters.Add(1)
	return s.eng
}

// Close stops the pinned scatter workers. Optional — a dropped Set's
// workers are stopped by a GC cleanup — but deterministic shutdown needs
// it. Idempotent, and safe while queries are inflight: new scatters fall
// back to pooled workers the moment the flag flips, inflight ones are
// drained before the worker channels close, and queries issued after
// Close still work, on pooled workers.
func (s *Set) Close() {
	s.engMu.Lock()
	s.closed = true
	eng := s.eng
	s.eng = nil
	s.engMu.Unlock()
	if eng != nil {
		eng.scatters.Wait()
		eng.close()
	}
}

// Prepare forces the deferred verification of every borrowed shard arena
// (SetFromSnapshotBorrowed); a no-op on built or copy-loaded sets.
// Queries require a prior successful Prepare on borrowed sets; the
// public layer calls it on each query entry.
func (s *Set) Prepare() error {
	for i := range s.units {
		if err := s.units[i].Packed.Prepare(); err != nil {
			return err
		}
	}
	return nil
}

// Build partitions the points of a point-major coordinate slab (with
// their ids; nil means slab positions) into the requested number of
// shards and packs each one (rtree.PackSTRPartitioned). All shards
// share cfg.Accountant and use disjoint page ID ranges.
func Build(cfg rtree.Config, coords []float64, ids []int64, shards int) (*Set, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: %d shards; need at least 1", shards)
	}
	ps, err := rtree.PackSTRPartitioned(cfg, coords, ids, shards)
	if err != nil {
		return nil, err
	}
	s := &Set{units: make([]Unit, len(ps)), dim: ps[0].Dim()}
	for i, p := range ps {
		s.units[i] = Unit{Tree: p.Tree(), Packed: p}
		s.size += p.Len()
	}
	return s, nil
}

// NumShards returns the number of shards.
func (s *Set) NumShards() int { return len(s.units) }

// Len returns the total number of indexed points.
func (s *Set) Len() int { return s.size }

// Dim returns the dimensionality.
func (s *Set) Dim() int { return s.dim }

// Shard returns shard i (read-only use; exposed for tests and bounds).
func (s *Set) Shard(i int) Unit { return s.units[i] }

// CountExact returns the multiplicity of (p, id) across all shards. Like
// rtree's CountExact it charges nothing — it is the overlay's tombstone
// bookkeeping, not a query.
func (s *Set) CountExact(p geom.Point, id int64) int {
	n := 0
	for _, u := range s.units {
		n += u.Packed.CountExact(p, id)
	}
	return n
}

// All invokes fn for every indexed point across all shards without
// charging node accesses; traversal stops early when fn returns false.
// Like rtree.Packed.All, fn must not retain p.
func (s *Set) All(fn func(p geom.Point, id int64) bool) {
	stop := false
	for _, u := range s.units {
		u.Packed.All(func(p geom.Point, id int64) bool {
			if !fn(p, id) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Sizes returns the per-shard point counts.
func (s *Set) Sizes() []int {
	out := make([]int, len(s.units))
	for i, u := range s.units {
		out[i] = u.Tree.Len()
	}
	return out
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

// Search answers one k-best query by scatter-gather: kernel runs against
// every shard with a fresh SharedBound wiring the shards together, then
// the per-shard lists merge into the global k best and the per-shard
// trackers sum into opt.Cost. workers caps the concurrent shard workers;
// values < 1 mean one worker, i.e. a sequential scatter, which reuses
// opt.Exec (the batch engine's warm per-worker context) and carries the
// bound from shard to shard, while workers > 1 run shards concurrently on
// pooled contexts for latency. The merged result does not depend on
// workers or timing. Each shard runs on its own arena (Options.Packed).
func (s *Set) Search(qs []geom.Point, opt core.Options, workers int, kernel Kernel) ([]core.GroupNeighbor, error) {
	n := len(s.units)
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
	perShardOpt := func(i int) core.Options {
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
		o.Packed = s.units[i].Packed
		return o
	}
	runShard := func(i int, ec *core.ExecContext) {
		o := perShardOpt(i)
		o.Exec = ec
		var start time.Time
		if timed {
			start = time.Now()
		}
		runs[i].list, runs[i].err = runKernel(kernel, s.units[i].Tree, qs, o)
		if timed {
			runs[i].dur = time.Since(start)
		}
	}
	if workers > n {
		workers = n
	}
	switch {
	case workers <= 1:
		// Sequential scatter reuses the caller's warm context (the batch
		// engine's per-worker arena) instead of cycling the pool.
		ec, owned := execFor(opt)
		for i := range s.units {
			runShard(i, ec)
		}
		if owned {
			ec.Release()
		}
	case workers >= n:
		// Full-parallel scatter — the serving default — runs on the
		// shard-per-core engine: shard i always executes on pinned worker
		// i with that worker's private context, so the fan-out shares
		// nothing but the pruning bound.
		if eng := s.acquireEngine(); eng != nil {
			eng.scatter(qs, runs, s.units, kernel, timed, func(i int) core.Options {
				o := perShardOpt(i)
				o.Exec = nil // the pinned worker supplies its own
				return o
			})
			eng.release()
			break
		}
		// Closed set: serve on transient pooled workers instead.
		core.RunPooled(n, workers, runShard)
	default:
		// A caller-capped worker count below the shard count keeps the
		// pooled work-stealing scatter: the engine's 1:1 shard-worker
		// assignment cannot honour the cap.
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

// runKernel invokes the kernel with per-shard panic containment: a panic
// inside a traversal (a corrupt arena that slipped past validation, a bug
// in a kernel) becomes that shard's error instead of killing the process.
// The serving layer depends on this to turn kernel panics into 500s.
func runKernel(kernel Kernel, t *rtree.Tree, qs []geom.Point, o core.Options) (res []core.GroupNeighbor, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("shard: kernel panic: %v", p)
		}
	}()
	return kernel(t, qs, o)
}

// execFor returns the caller-supplied context or draws a pooled one;
// owned reports whether the caller of execFor must release it.
func execFor(opt core.Options) (*core.ExecContext, bool) {
	if opt.Exec != nil {
		return opt.Exec, false
	}
	return core.AcquireExec(), true
}

// Iterator merges the per-shard incremental GNN scans into one globally
// ascending stream — the sharded twin of core.GNNIterator. The merge is
// lazy: a shard is only advanced when its current lower bound (the peek
// of its best-first heap) is the smallest among all shards, so far-away
// shards pay almost no node accesses until the scan actually reaches
// their territory. Use from a single goroutine, like every iterator; any
// number of Iterators may run concurrently.
type Iterator struct {
	its   []core.Stream
	heads []iterHead
}

// iterHead is the merge state of one shard: either an exact buffered
// result (exact == true; key is its distance) or a lower bound on
// whatever the shard yields next (exact == false; key is the peek).
type iterHead struct {
	res   core.GroupNeighbor
	key   float64
	exact bool
	done  bool
}

// NewIterator starts a sharded incremental scan. Every per-shard iterator
// charges opt.Cost (safe: the merge advances them from the caller's
// goroutine only), so the iterator's reported cost is exactly the sum of
// per-shard node accesses. Constructing it reads every shard's root.
func (s *Set) NewIterator(qs []geom.Point, opt core.Options) (*Iterator, error) {
	it := &Iterator{
		its:   make([]core.Stream, len(s.units)),
		heads: make([]iterHead, len(s.units)),
	}
	for i, u := range s.units {
		o := opt
		o.Packed = u.Packed
		sub, err := core.NewGNNIterator(u.Tree, qs, o)
		if err != nil {
			it.Close()
			return nil, err
		}
		it.its[i] = sub
		if d, ok := sub.PeekDist(); ok {
			it.heads[i].key = d
		} else {
			it.heads[i].done = true
		}
	}
	return it, nil
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
// with the same lazy two-phase discipline as the sharded iterator: a
// stream is only advanced once its lower bound is the global minimum. The
// overlay index uses it to merge base, delta and pending streams into one
// exact ascending scan. The merge takes ownership of the streams: Close
// closes them all, and a nil stream slot is skipped.
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

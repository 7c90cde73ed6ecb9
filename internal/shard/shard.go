// Package shard holds an index's views. A view (Set) is one published
// state of an index: its base arenas, which every query traverses, plus
// its write overlay. The package owns the overlay's layout, its writes
// (Insert, Delete), its reads and its fold back into a fresh base (Fold).
//
// The base is either one unpartitioned packed arena (Pack), the base of
// a plain index, or a Hilbert partition of the data set into S
// independent packed R-trees (Build, rtree.PackSTRPartitioned): sorting
// by Hilbert value and cutting the curve into S runs yields spatially
// coherent shards, so a query group's neighborhood usually concentrates
// in few shards and the rest prune quickly. The set alone tells the two
// apart: Search, NewIterator, Nearest, Fold and WriteSnapshot run the one
// arena directly or scatter over the shards, and everything else serves
// both alike.
//
// The overlay never edits the base. Inserts land in a pending tail that
// every pendFold inserts is folded into a packed delta mini tree;
// deletes tombstone base points or remove overlay points. The tombstones
// keep each masked point's base multiplicity: a re-insert of a masked
// point revives it, reads veto only fully masked points, and the fold
// drops exactly the masked occurrences. Every write returns a successor
// set over the same arenas (copy-on-write), so a query keeps the
// consistent view it started on.
//
// A read runs a list of sources: the base's arenas and, after writes,
// the overlay's delta tree and pending tail. A k-best search runs the
// same unmodified MQM/SPM/MBM/brute kernel against every source under
// one core.SharedBound, held by the query's execution context: the query
// group, prepared once, and the current k-th best distance, through which
// the sources prune each other's search space. The shards run
// sequentially on the caller's goroutine, or over a small pool of
// goroutines (core.RunPooled), each with three pieces of per-shard state:
//
//   - its own arena and rtree.Reader (via core.Options.Packed per
//     shard), so traversals never contend;
//   - its own pagestore.CostTracker, summed into the query's tracker at
//     gather time, so reported cost is exactly the sum of per-shard node
//     accesses (and the shared Accountant keeps the index-wide aggregate
//     consistent as always);
//   - its own trace and wall time, merged at gather time.
//
// The delta tree and the pending tail run after the base on the caller's
// goroutine. One core.MergeNeighbors k-way-merges every source's
// ascending result list into the global k best. The merged answer is
// provably identical to an unsharded search over the live points
// regardless of worker timing (see core.SharedBound); only per-shard
// node-access counts vary with when bounds get published, and only under
// concurrent scatter. The incremental scan (NewIterator) and the
// point-NN search (Nearest) merge the same sources' ascending streams
// lazily instead (iterator). A set owns no goroutine: a parallel
// scatter's workers finish before it returns.
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

// Set is one immutable view of an index: its base, one unpartitioned
// arena (Pack) or a Hilbert partition into shards (Build), each shard an
// independent packed R-tree over a Hilbert-contiguous run of the data
// set, plus the write overlay on top of it. Insert and Delete return
// successor sets over the same arenas; Fold packs the live points into a
// fresh set without writes. Any number of queries may run against a set
// concurrently.
type Set struct {
	arenas []*rtree.Packed
	dim    int
	size   int // points in the arenas
	// partitioned is set by Build and by sharded snapshots; an
	// unpartitioned set holds exactly one arena and never scatters.
	partitioned bool
	// w is the write overlay; nil without writes (the fast path: reads
	// run exactly the base's own code).
	w *writes
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

// Len returns the number of live points: the arenas' points not masked
// by a tombstone, plus the overlay inserts.
func (s *Set) Len() int {
	inserts, tombstones := s.Overlay()
	return s.size + inserts - tombstones
}

// Arena returns the one arena of an unpartitioned set, or ErrPartitioned.
func (s *Set) Arena() (*rtree.Packed, error) {
	if s.partitioned {
		return nil, ErrPartitioned
	}
	return s.arenas[0], nil
}

// Arenas returns the packed arenas in shard order: the set's own slice,
// which callers must not modify. A borrowed set must pass Prepare before
// their columns are read.
func (s *Set) Arenas() []*rtree.Packed { return s.arenas }

// Bounds returns the MBR of the arenas' points and the overlay inserts;
// ok is false when there are none. Deletes do not shrink it until a
// fold, so the bounds of a view with writes are conservative (never too
// small).
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
	if s.w != nil && len(s.w.pts) > 0 {
		or := geom.BoundingRect(s.w.pts)
		if ok {
			or = or.Union(r)
		}
		r, ok = or, true
	}
	return r, ok
}

// CheckInvariants validates every arena's R-tree structure, then the
// overlay's delta tree; a shard's error names the shard.
func (s *Set) CheckInvariants() error {
	for i, p := range s.arenas {
		if err := p.Tree().CheckInvariants(); err != nil {
			if s.partitioned {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			return err
		}
	}
	if s.w != nil && s.w.delta != nil {
		if err := s.w.delta.Tree().CheckInvariants(); err != nil {
			return fmt.Errorf("overlay delta: %w", err)
		}
	}
	return nil
}

// Kernel is a core query entry point (core.MQM, core.SPM, core.MBM,
// core.BruteForce) run identically against every source.
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

// Search answers one k-best query over the view. An unpartitioned set
// without writes runs kernel on its one arena directly, timed as the
// "query" stage. Otherwise every source runs under one shared group and
// pruning bound: the base's arenas first (with the tombstones' veto; a
// partitioned set scatters, see scatter), then the delta tree and the
// pending tail on the caller's goroutine, and one k-way merge of all
// their lists answers. workers caps a scatter's concurrent shard
// workers. A traced search records the "scatter" stages of a partitioned
// base, then, with an overlay, "base" (the whole base search), "delta"
// and "pending", and last the merge: "overlay-merge" on a partitioned set
// with an overlay, "merge" otherwise.
func (s *Set) Search(qs []geom.Point, opt core.Options, workers int, kernel Kernel) ([]core.GroupNeighbor, error) {
	timed := opt.Stages != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	mark := func(name string) {
		if timed {
			now := time.Now()
			opt.Stages.Record(name, -1, now.Sub(start))
			start = now
		}
	}
	w := s.w
	if !s.partitioned && w == nil {
		p := s.arenas[0]
		opt.Packed = p
		gs, err := kernel(p.Tree(), qs, opt)
		if err != nil {
			return nil, err
		}
		mark("query")
		return gs, nil
	}
	if opt.Exec == nil {
		opt.Exec = core.AcquireExec()
		defer opt.Exec.Release()
	}
	var err error
	if opt.Shared, err = opt.Exec.Share(qs, s.dim, opt); err != nil {
		return nil, err
	}
	bopt := opt
	if w != nil {
		bopt.Reject = w.reject
	}
	// One list per base arena, the delta and the pending tail; an
	// unpartitioned view's lists fit on the stack.
	var few [3][]core.GroupNeighbor
	lists := few[:0]
	if n := len(s.arenas) + 2; n > len(few) {
		lists = make([][]core.GroupNeighbor, 0, n)
	}
	if s.partitioned {
		lists, err = s.scatter(lists, qs, bopt, workers, kernel)
	} else {
		var gs []core.GroupNeighbor
		gs, err = runKernel(kernel, s.arenas[0], qs, bopt)
		lists = append(lists, gs)
	}
	if err != nil {
		return nil, err
	}
	merge := "merge"
	if w != nil {
		mark("base")
		if w.delta != nil {
			gs, err := runKernel(kernel, w.delta, qs, opt)
			if err != nil {
				return nil, err
			}
			lists = append(lists, gs)
			mark("delta")
		}
		if pts, ids := w.pending(); len(pts) > 0 {
			gs, err := core.ScanPoints(pts, ids, qs, opt)
			if err != nil {
				return nil, err
			}
			lists = append(lists, gs)
			mark("pending")
		}
		if s.partitioned {
			merge = "overlay-merge"
		}
	}
	if timed {
		start = time.Now()
	}
	merged := core.MergeNeighbors(max(opt.K, 1), lists)
	mark(merge)
	return merged, nil
}

// scatter runs kernel against every shard under opt.Shared and appends
// the per-shard result lists to lists, in shard order; the per-shard
// trackers sum into opt.Cost. workers caps the concurrent shard workers:
// 0 means one per available core (GOMAXPROCS). A width of one (or a
// one-shard set) scatters sequentially on the caller's goroutine, reusing
// opt.Exec (the batch engine's warm per-worker context) and carrying the
// bound from shard to shard; a wider one runs the shards concurrently on
// core.RunPooled's transient workers for latency. The merged result does
// not depend on workers or timing. Each shard runs on its own arena
// (Options.Packed). A traced scatter records one "scatter" stage per
// shard.
func (s *Set) scatter(lists [][]core.GroupNeighbor, qs []geom.Point, opt core.Options, workers int, kernel Kernel) ([][]core.GroupNeighbor, error) {
	n := len(s.arenas)
	// Diagnostics are per-shard state like the cost tracker: a traced
	// scatter redirects each worker into its run slot's private trace and
	// merges at gather time; stage timing rides the same flag machinery.
	traced := opt.Trace != nil
	timed := opt.Stages != nil
	runs := make([]shardRun, n)
	runShard := func(i int, ec *core.ExecContext) {
		o := opt
		o.Cost = &runs[i].tk
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
		for i := range n {
			runShard(i, opt.Exec)
		}
	} else {
		core.RunPooled(n, workers, runShard)
	}
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
		lists = append(lists, runs[i].list)
	}
	return lists, nil
}

// runKernel invokes the kernel on arena p with panic containment: a
// panic inside a traversal (a corrupt arena that slipped past
// validation, a bug in a kernel) becomes that source's error instead of
// killing the process. The serving layer depends on this to turn kernel
// panics into 500s.
func runKernel(kernel Kernel, p *rtree.Packed, qs []geom.Point, o core.Options) (res []core.GroupNeighbor, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("shard: kernel panic: %v", r)
		}
	}()
	o.Packed = p
	return kernel(p.Tree(), qs, o)
}

// Stream is an ascending-distance candidate stream: the common surface of
// the sources an iterator merges. core.GNNIterator (one per tree source)
// and rtree.NNIterator (a point-NN scan) are Streams as they are; the
// pending tail's sorted exact distances stream through listStream.
type Stream interface {
	// Next returns the next candidate; ok is false when exhausted. The
	// candidate's Point may be the stream's scratch, valid only until the
	// stream's next Next or Close: consumers that keep it copy it.
	Next() (core.GroupNeighbor, bool)
	// PeekDist returns a lower bound on the next candidate's distance;
	// ok is false when exhausted.
	PeekDist() (float64, bool)
	// Close releases the stream's resources; it is idempotent.
	Close()
}

// listStream streams a pre-computed result list, ascending by distance
// as core.ScanAll returns it. Unlike a tree iterator's, its distances are
// exact, so PeekDist is tight.
type listStream struct {
	items []core.GroupNeighbor
	pos   int
}

func (ls *listStream) Next() (core.GroupNeighbor, bool) {
	if ls.pos >= len(ls.items) {
		return core.GroupNeighbor{}, false
	}
	g := ls.items[ls.pos]
	ls.pos++
	return g, true
}

func (ls *listStream) PeekDist() (float64, bool) {
	if ls.pos >= len(ls.items) {
		return 0, false
	}
	return ls.items[ls.pos].Dist, true
}

func (ls *listStream) Close() { ls.items = nil; ls.pos = 0 }

// iterator merges the ascending-distance streams of a view's sources —
// its base arenas, delta tree and pending tail — into one globally
// ascending stream (holding the context of their shared group until
// Close). The merge is lazy: a stream is only advanced when its current
// lower bound (the peek of its best-first heap) is the smallest among all
// streams, so far-away shards pay almost no node accesses until the scan
// actually reaches their territory. Use from a
// single goroutine, like every iterator; any number of them may run
// concurrently.
type iterator struct {
	heads []iterHead
	ec    *core.ExecContext
}

// iterHead is the merge state of one stream: either an exact buffered
// result (exact == true; key is its distance) or a lower bound on
// whatever the stream yields next (exact == false; key is the peek).
type iterHead struct {
	src   Stream
	res   core.GroupNeighbor
	key   float64
	exact bool
	done  bool
}

// NewIterator starts an incremental scan over the view: the arena's own
// core.GNNIterator on an unpartitioned set without writes, else the lazy
// merge of one GNNIterator per base arena (with the tombstones' veto),
// the delta tree's GNNIterator and the pending tail's exact distances,
// sorted, all over one shared group. Every tree stream charges opt.Cost
// (safe: the merge advances them from the caller's goroutine only), so
// the iterator's reported cost is exactly the sum of their node
// accesses. Constructing it reads every tree's root.
func (s *Set) NewIterator(qs []geom.Point, opt core.Options) (Stream, error) {
	w := s.w
	if !s.partitioned && w == nil {
		opt.Packed = s.arenas[0]
		it, err := core.NewGNNIterator(opt.Packed.Tree(), qs, opt)
		if err != nil {
			return nil, err
		}
		return it, nil
	}
	merged := &iterator{heads: make([]iterHead, 0, len(s.arenas)+2), ec: core.AcquireExec()}
	fail := func(err error) (Stream, error) {
		merged.Close()
		return nil, err
	}
	var err error
	if opt.Shared, err = merged.ec.Share(qs, s.dim, opt); err != nil {
		return fail(err)
	}
	bopt := opt
	if w != nil {
		bopt.Reject = w.reject
	}
	for _, p := range s.arenas {
		o := bopt
		o.Packed = p
		it, err := core.NewGNNIterator(p.Tree(), qs, o)
		if err != nil {
			return fail(err)
		}
		merged.push(it)
	}
	if w != nil {
		if w.delta != nil {
			o := opt
			o.Packed = w.delta
			it, err := core.NewGNNIterator(w.delta.Tree(), qs, o)
			if err != nil {
				return fail(err)
			}
			merged.push(it)
		}
		if pts, ids := w.pending(); len(pts) > 0 {
			list, err := core.ScanAll(pts, ids, qs, opt)
			if err != nil {
				return fail(err)
			}
			merged.push(&listStream{items: list})
		}
	}
	return merged, nil
}

// Nearest answers a point-NN query, the k nearest live points of the
// view to q, charging tk; a partitioned set fails with ErrPartitioned.
// Without writes it is the arena's best-first search
// (rtree.Reader.NearestBF). With them it lazily merges the base's
// incremental scan (tombstoned hits skipped), the delta tree's and the
// pending tail's exact distances. The results' points are copied into
// one slab the caller owns, sized by the points the view holds, not by
// k.
func (s *Set) Nearest(q geom.Point, k int, tk *pagestore.CostTracker) ([]core.GroupNeighbor, error) {
	p, err := s.Arena()
	if err != nil {
		return nil, err
	}
	w := s.w
	if w == nil {
		return p.Reader(tk).NearestBF(q, k), nil
	}
	// The pending tail is scored before any scan opens, so a failure
	// leaves none to close.
	pts, ids := w.pending()
	var pend []core.GroupNeighbor
	if len(pts) > 0 {
		if pend, err = core.ScanAll(pts, ids, []geom.Point{q}, core.Options{}); err != nil {
			return nil, err
		}
	}
	it := &iterator{heads: make([]iterHead, 0, 3)}
	defer it.Close()
	if base := p.Reader(tk).NewNNIterator(q); w.reject != nil {
		it.push(&unmasked{NNIterator: base, reject: w.reject})
	} else {
		it.push(base)
	}
	held := p.Len() + len(pts)
	if w.delta != nil {
		it.push(w.delta.Reader(tk).NewNNIterator(q))
		held += w.delta.Len()
	}
	if len(pend) > 0 {
		it.push(&listStream{items: pend})
	}
	n, dim := min(k, held), len(q)
	out := make([]core.GroupNeighbor, 0, n)
	slab := make([]float64, 0, n*dim)
	for len(out) < k {
		g, ok := it.Next()
		if !ok {
			break
		}
		at := len(slab)
		slab = append(slab, g.Point...)
		g.Point = slab[at : at+dim : at+dim]
		out = append(out, g)
	}
	return out, nil
}

// unmasked is a base point-NN scan that skips the hits reject vetoes. A
// skipped hit is no closer than the one after it, so the scan's
// PeekDist still bounds the next hit from below.
type unmasked struct {
	*rtree.NNIterator
	reject core.RejectFunc
}

func (u *unmasked) Next() (core.GroupNeighbor, bool) {
	for {
		nb, ok := u.NNIterator.Next()
		if !ok || !u.reject(nb.Point, nb.ID) {
			return nb, ok
		}
	}
}

// Next returns the next group nearest neighbor across all sources in
// ascending aggregate distance; ok is false when every source is
// exhausted. Ties resolve to the earlier stream (base arenas in shard
// order, then the delta, then the pending tail), so the stream is
// deterministic.
func (it *iterator) Next() (core.GroupNeighbor, bool) {
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
			// Smallest key is an exact result: every other source's next
			// result is at least its own key ≥ this one, so emit it and
			// refill this source's head with its new lower bound.
			g := h.res
			h.res = core.GroupNeighbor{}
			if d, ok := h.src.PeekDist(); ok {
				h.key, h.exact = d, false
			} else {
				h.done = true
			}
			return g, true
		}
		// Smallest key is only a bound: advance that source to an exact
		// result (its distance may well exceed another source's key,
		// which the next pass of the loop then prefers).
		g, ok := h.src.Next()
		if !ok {
			h.done = true
			continue
		}
		h.res, h.key, h.exact = g, g.Dist, true
	}
}

// PeekDist returns a lower bound on the distance of the next result; ok
// is false when the scan is exhausted.
func (it *iterator) PeekDist() (float64, bool) {
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

// Close releases the sources' and the group's pooled scratch. Idempotent.
func (it *iterator) Close() {
	for i := range it.heads {
		h := &it.heads[i]
		if h.src != nil {
			h.src.Close()
			h.src = nil
		}
		h.done = true
	}
	it.ec.Release() // nil-safe
	it.ec = nil
}

// push adds an ascending-distance stream to the merge, which takes it
// over: Close closes it. Streams pushed earlier win ties.
func (it *iterator) push(src Stream) {
	h := iterHead{src: src}
	if d, ok := src.PeekDist(); ok {
		h.key = d
	} else {
		h.done = true
	}
	it.heads = append(it.heads, h)
}

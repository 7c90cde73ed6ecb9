package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/pq"
	"gnn/internal/rtree"
)

// ExecContext is the pooled per-query scratch arena of the GNN kernels:
// every slice and heap a query needs in steady state — the result
// accumulator, per-depth candidate buffers for depth-first traversals,
// best-first entry heaps, MQM's threshold and iterator slices, F-MBM's
// leaf buffers, the query-MBR corners, the leaf-point gather scratch and
// the query's cost tracker — lives here and is reused across queries, so
// a warm kernel allocates (almost) nothing.
//
// Acquire a context with AcquireExec and return it with Release, or set
// Options.Exec to reuse one context across many sequential queries (the
// batch engine holds one per worker). A context must never be shared by
// concurrent queries: like Options.Cost, it is unsynchronised by design.
type ExecContext struct {
	best  kbest
	tk    pagestore.CostTracker
	qmbr  geom.Rect
	qcent geom.Point

	// Traversal scratch: per-depth ref candidates, the int32 best-first
	// heap, the fused-kernel distance buffers and a spare rectangle for the
	// per-node bounds that need one (heuristic 3, F-MBM leaf ordering).
	cands rtree.PCandStack
	heap  pq.Heap[rtree.PackedRef]
	dbuf  []float64
	dbuf2 []float64
	prect geom.Rect

	// Gather scratch of the kernels: a leaf slot's coordinates,
	// copied from the arena's axis columns (rtree.Packed.PointInto) so
	// the geom.Point helpers can run on it. Overwritten per leaf point;
	// the result accumulator copies what it keeps.
	pt geom.Point

	// The query group laid out for the aggregate family (aggregate.go).
	grp soaGroup

	// Dedicated aggregate-MAX scratch: the minimum-enclosing-ball solver's
	// buffers and the derived pruning context (see maxmeb.go).
	mebs geom.MEBScratch
	meb  mebCtx

	// Conversion buffer of the public layer (query []Point → []geom.Point).
	qsbuf []geom.Point

	// MQM per-stream state.
	thresholds []float64
	iters      []*rtree.NNIterator

	// F-MBM leaf-processing state.
	order     []int
	keep      []int
	blockDist []float64
	lbs       []float64
	fcands    []fmbmCand
}

var execPool = pq.NewPool(func() *ExecContext { return &ExecContext{} })

// AcquireExec draws an execution context from the pool. Callers must
// Release it when the query completes.
func AcquireExec() *ExecContext { return execPool.Get() }

// Release zeroes everything the context retained (so pooled buffers don't
// pin a finished query's points or subtrees) and returns it to the pool.
// Buffers sized by what a caller asked for — the result rows (k) and the
// group's columns and streams (the group size) — are dropped instead of
// kept when they exceed pq.RetainCap, so one outsized request cannot pin
// its memory in the pool. The context must not be used afterwards.
func (ec *ExecContext) Release() {
	if ec == nil {
		return
	}
	ec.best.release()
	ec.cands.Reset()
	ec.heap.Reset()
	clear(ec.qsbuf[:cap(ec.qsbuf)])
	ec.qsbuf = pq.Trim(ec.qsbuf)
	ec.grp.release()
	ec.thresholds = pq.Trim(ec.thresholds)
	clear(ec.iters[:cap(ec.iters)])
	ec.iters = pq.Trim(ec.iters)
	ec.fcands = ec.fcands[:0]
	ec.lbs = ec.lbs[:0]
	ec.mebs.Reset()
	ec.meb = mebCtx{}
	execPool.Put(ec)
}

// Tracker returns the context's cost tracker, zeroed for a new query.
// Holding the tracker in the pooled context keeps a per-query tracker
// from escaping to the heap on every call; read it before Release.
func (ec *ExecContext) Tracker() *pagestore.CostTracker {
	ec.tk = pagestore.CostTracker{}
	return &ec.tk
}

// RunPooled distributes n independent jobs over a pool of the requested
// number of workers (<= 0 means GOMAXPROCS, capped at n), giving each
// worker one pooled execution context for its whole share so every job
// after a worker's first reuses warm scratch. It is the worker-pool
// primitive behind the public batch engine and the sharded scatter.
func RunPooled(n, workers int, job func(i int, ec *ExecContext)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		ec := AcquireExec()
		defer ec.Release()
		for i := 0; i < n; i++ {
			job(i, ec)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ec := AcquireExec()
			defer ec.Release()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i, ec)
			}
		}()
	}
	wg.Wait()
}

// exec returns the options' context, drawing a pooled one when the caller
// did not supply any. done reports whether the callee owns it and must
// Release it on completion.
func (o Options) exec() (ec *ExecContext, owned bool) {
	if o.Exec != nil {
		return o.Exec, false
	}
	return AcquireExec(), true
}

// releaseIfOwned releases ec when owned; pair it with exec() via defer.
func releaseIfOwned(ec *ExecContext, owned bool) {
	if owned {
		ec.Release()
	}
}

// Points returns a reusable []geom.Point of length n (contents undefined),
// used by the public layer to convert caller queries without allocating.
func (ec *ExecContext) Points(n int) []geom.Point {
	if cap(ec.qsbuf) < n {
		ec.qsbuf = make([]geom.Point, n)
	}
	ec.qsbuf = ec.qsbuf[:n]
	return ec.qsbuf
}

// kbestFor returns the context's result accumulator, reset for k results
// over tree t (which bounds how many it can hold), with an optional
// candidate veto (nil rejects nothing).
func (ec *ExecContext) kbestFor(t *rtree.Tree, k int, rej RejectFunc) *kbest {
	ec.best.reset(k, t.Len(), t.Dim())
	ec.best.reject = rej
	return &ec.best
}

// kbestShared is kbestFor coupled to a cross-shard pruning bound (nil for
// a standalone query — the common case — which behaves exactly as before).
func (ec *ExecContext) kbestShared(t *rtree.Tree, k int, s *SharedBound, rej RejectFunc) *kbest {
	b := ec.kbestFor(t, k, rej)
	b.shared = s
	return b
}

// gather copies packed leaf slot s's coordinates into the context's
// gather scratch and returns it (valid until the next gather).
func (ec *ExecContext) gather(p *rtree.Packed, s int32) geom.Point {
	ec.pt = p.PointInto(s, ec.pt)
	return ec.pt
}

// mebFor arms and returns the context's dedicated-MAX pruning context for
// this query group (see maxmeb.go).
func (ec *ExecContext) mebFor(qs []geom.Point, w *weightCtx) *mebCtx {
	ec.meb.init(&ec.mebs, qs, w)
	return &ec.meb
}

// boundingRect computes MBR(qs) into the context's reusable corners.
func (ec *ExecContext) boundingRect(qs []geom.Point) geom.Rect {
	ec.qmbr = geom.BoundingRectInto(ec.qmbr, qs)
	return ec.qmbr
}

// centerOf computes r's centre into the context's reusable point.
func (ec *ExecContext) centerOf(r geom.Rect) geom.Point {
	d := r.Dim()
	if cap(ec.qcent) < d {
		ec.qcent = make(geom.Point, d)
	}
	ec.qcent = ec.qcent[:d]
	for i := range ec.qcent {
		ec.qcent[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return ec.qcent
}

// floats returns a zeroed []float64 of length n backed by dst, growing it
// as needed.
func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

// grow returns dst with length n (contents undefined), reallocating only
// when capacity is short.
func grow[T any](dst []T, n int) []T {
	if cap(dst) < n {
		dst = make([]T, n)
	}
	return dst[:n]
}

// reset prepares the accumulator for a new query with result size k in
// dim dimensions, over a source of hold points: the backing arrays are
// kept and reserved for min(k, hold) results — what the accumulator can
// actually come to hold — never for k itself.
func (b *kbest) reset(k, hold, dim int) {
	n := min(k, hold)
	b.items = b.items[:0]
	if cap(b.items) < n {
		b.items = make([]kbItem, 0, n)
	}
	b.rows = b.rows[:0]
	if cap(b.rows) < n*dim {
		b.rows = make([]float64, 0, n*dim)
	}
	b.k = k
	b.shared = nil
	b.reject = nil
}

// release empties the accumulator for the pool, dropping backing arrays
// above pq.RetainCap elements.
func (b *kbest) release() {
	b.items = pq.Trim(b.items)
	b.rows = pq.Trim(b.rows)
	b.shared = nil
	b.reject = nil
}

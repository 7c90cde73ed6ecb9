// Package gnn answers group nearest neighbor (GNN) queries: given a set of
// indexed data points P and a group of query points Q, it finds the data
// point(s) minimising the aggregate distance to the whole group — e.g. the
// restaurant minimising the total travel distance of several users.
//
// It is a from-scratch Go implementation of the algorithms in
//
//	D. Papadias, Q. Shen, Y. Tao, K. Mouratidis:
//	"Group Nearest Neighbor Queries", ICDE 2004.
//
// Data points live in an R*-tree (Index). Memory-resident query groups are
// answered by MQM, SPM or MBM; disk-resident query sets (QuerySet) by
// F-MQM, F-MBM or — when the query set is itself indexed — GCP. The
// library reproduces the paper's cost model: every traversal counts
// simulated node accesses, optionally through an LRU buffer.
//
// Concurrency: every query runs in its own execution context, so all read
// operations — GroupNN and its variants, NearestNeighbors, iterators,
// GroupNNBatch, GroupNNFromSet — are safe for unlimited concurrent callers
// against one shared Index. Per-query costs (GroupNNWithCost) and the
// index-wide aggregate (Index.Cost) stay exact under concurrency: the
// per-query costs of any set of queries sum to the aggregate they accrued.
//
// Every query traverses a packed base: a flat structure-of-arrays arena
// that keeps the R-tree's pages, so node accesses follow the paper's cost
// model exactly. BuildIndex and the snapshot opens produce one directly.
// NewIndex starts an R*-tree insertion builder; its first read (or Pack)
// freezes the builder into a packed base.
//
// Writes under live traffic: once an index has a packed base, Insert and
// Delete are safe to call concurrently with any number of readers.
// Mutations never touch the immutable base — inserts land in a small
// delta overlay (a pending tail folded into a packed mini tree) and
// deletes tombstone base points or physically remove overlay points — and
// every write publishes a new immutable index view atomically, so an
// in-flight query keeps traversing the consistent view it started on.
// Queries merge the base, delta and pending candidate streams with the
// same shared-bound machinery the sharded scatter uses, returning exactly
// what a fresh index over the live point set would return. Pack (or the
// background compactor, see StartCompactor) folds the overlay back into a
// fresh packed base off the hot path and swaps it in under live readers.
// Only a NewIndex before its first read keeps the builder's contract:
// mutations go straight into the R*-tree and require external
// synchronisation with no concurrent readers.
//
// Scale-out: ShardedIndex Hilbert-partitions the data set into S
// independent packed R-trees and answers the same query surface by
// scatter-gather — per-shard kernels share a monotonically tightening
// best-distance bound and a k-way merge reassembles the answer — with
// the distances of a single Index rank for rank (exact equal-distance
// ties may resolve to a different tied point) and per-query costs that
// are the exact sum of per-shard node accesses.
//
// Persistence: WriteSnapshot serialises the packed serving arena in a
// versioned, checksummed binary format (internal/snapshot) and
// OpenSnapshot cold-starts from it without re-bulk-loading — with
// results, costs and node accesses bit-identical to the index that
// wrote it. ShardedIndex snapshots round-trip with their partition
// intact. See the README's "Persistence" section.
//
// Quick start:
//
//	ix, _ := gnn.BuildIndex(places, nil)
//	res, _ := ix.GroupNN([]gnn.Point{{1, 2}, {5, 6}, {9, 3}}, gnn.WithK(3))
//	fmt.Println(res[0].Point, res[0].Dist)
package gnn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/mmapfile"
	"gnn/internal/overlay"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// Point is a point in d-dimensional Euclidean space (the paper evaluates
// d = 2, but any dimensionality works for the memory-resident algorithms).
type Point = []float64

// Result is one GNN answer: a data point, its caller-supplied identifier
// and its aggregate distance to the query group.
type Result struct {
	Point Point
	ID    int64
	Dist  float64
}

// IndexConfig tunes an Index. The zero value matches the paper's setup:
// 2-D points, 50 entries per node (1 KB pages), no buffer.
type IndexConfig struct {
	// Dim is the point dimensionality (default 2).
	Dim int
	// NodeCapacity is the R*-tree fanout M (default 50, the paper's 1 KB
	// pages).
	NodeCapacity int
	// BufferPages attaches an LRU buffer of that many pages to the
	// index's access accounting; 0 disables buffering.
	BufferPages int
}

// Index is an R*-tree over the data set P. Build one with NewIndex (empty,
// then Insert) or BuildIndex (bulk load). All read operations are safe for
// unlimited concurrent callers.
//
// Queries traverse the index's packed base: a flat, cache-friendly SoA
// arena. The packed base is immutable: Insert and Delete on a packed
// index go into a delta overlay (see the package comment) and are
// themselves safe under concurrent readers; Pack or the background
// compactor folds the overlay back into a fresh packed base. A NewIndex
// is an insertion builder until its first read packs it: until then
// mutations go straight into the R*-tree and require external
// synchronisation with no concurrent readers.
type Index struct {
	// view is the index's current immutable serving state: base tree,
	// packed base arena and write overlay. Readers load it once per
	// operation (lock-free); writers build a successor under mu and
	// publish it atomically.
	view atomic.Pointer[viewState]
	acct *pagestore.Accountant
	rcfg rtree.Config

	// mu serializes writers: Insert, Delete, Pack and the compactor's
	// swap step. Readers never take it.
	mu sync.Mutex
	// log records the effective mutations applied since the current base
	// was built (under mu); the compactor replays the tail that arrived
	// while it was repacking. A published view's seq always equals the
	// log length at publish time.
	log []overlay.Mutation
	// comp is the background compactor, nil unless StartCompactor ran.
	comp *compactor
	// compactMu serializes whole compaction cycles (manual Compact/Pack
	// vs the background loop) so two repacks never interleave.
	compactMu sync.Mutex
	// persist is the crash-safe rotation target ("" = no on-disk
	// rotation), set by StartCompactor; guarded by mu.
	persist string

	compactGen atomic.Uint64          // completed compactions
	compactNS  atomic.Int64           // duration of the last compaction
	compactErr atomic.Pointer[string] // last compaction error ("" = none)

	// mapped is the file view backing a zero-copy open
	// (OpenSnapshotMapped); nil for every other construction. closed
	// flips when Close starts, after which new queries fail fast with
	// ErrSnapshotClosed; refs counts the reads still inflight, which
	// Close drains before unmapping (see acquire/release).
	mapped *mmapfile.File
	closed atomic.Bool
	refs   atomic.Int64
}

// prepare readies the index for a traversal: it fails fast on a closed
// mapping, freezes a NewIndex's builder into its packed base at the first
// read, and forces the deferred verification of a mapped open (lazy
// checksum + structure validation, run once). Writers that already hold
// mu call it only on packed views, where it never locks.
func (ix *Index) prepare() error {
	if ix.closed.Load() {
		return ErrSnapshotClosed
	}
	v := ix.view.Load()
	if v.packed == nil {
		v = ix.freeze()
	}
	return v.packed.Prepare()
}

// freeze packs the insertion builder of a never-read NewIndex into the
// index's packed base (structure and pages preserved, so results and node
// accesses are unchanged) and publishes it; from then on mutations go
// through the overlay. It returns the current view, packed.
func (ix *Index) freeze() *viewState {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	v := ix.view.Load()
	if v.packed == nil {
		p := v.tree.Pack()
		v = &viewState{tree: p.Tree(), packed: p, seq: v.seq}
		ix.view.Store(v)
	}
	return v
}

// acquire registers an inflight read against the index lifecycle so a
// concurrent Close drains it before unmapping. The order — increment,
// then check closed — pairs with Close's flip-then-wait: a reader that
// saw closed == false has already published its reference, so Close
// cannot observe a drained count before that reader releases.
func (ix *Index) acquire() error {
	ix.refs.Add(1)
	if ix.closed.Load() {
		ix.refs.Add(-1)
		return ErrSnapshotClosed
	}
	return nil
}

// release retires a reference taken by acquire.
func (ix *Index) release() { ix.refs.Add(-1) }

// drainRefs spins until every inflight read has released: briefly yielding
// the processor, then backing off to short sleeps. Queries are bounded
// (iterators release on Close or exhaustion), so the wait is too.
func drainRefs(refs *atomic.Int64) {
	for i := 0; refs.Load() != 0; i++ {
		if i < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// newIndexOver wraps a constructed base — an insertion builder (p nil)
// or a packed arena's shell — into an Index with its initial view
// published.
func newIndexOver(t *rtree.Tree, p *rtree.Packed, acct *pagestore.Accountant, rcfg rtree.Config) *Index {
	ix := &Index{acct: acct, rcfg: rcfg}
	ix.view.Store(&viewState{tree: t, packed: p})
	empty := ""
	ix.compactErr.Store(&empty)
	return ix
}

// NewIndex returns an empty index whose R*-tree is an insertion builder:
// Insert and Delete mutate it directly until the first read (or Pack)
// freezes it into the packed base that every query traverses.
func NewIndex(cfg IndexConfig) (*Index, error) {
	acct, rcfg := indexConfig(cfg)
	t, err := rtree.New(rcfg)
	if err != nil {
		return nil, err
	}
	return newIndexOver(t, nil, acct, rcfg), nil
}

// BuildIndex bulk-loads an index from points using sort-tile-recursive
// packing. ids[i] identifies points[i]; pass nil to use the slice index.
func BuildIndex(points []Point, ids []int64, cfg IndexConfig) (*Index, error) {
	acct, rcfg := indexConfig(cfg)
	coords, err := rtree.Flatten(rcfg, points)
	if err != nil {
		return nil, err
	}
	p, err := rtree.PackSTR(rcfg, coords, ids)
	if err != nil {
		return nil, err
	}
	return newIndexOver(p.Tree(), p, acct, rcfg), nil
}

// NonFiniteError reports a point with a NaN or infinite coordinate.
// BuildIndex, BuildShardedIndex and both Insert methods reject such a
// point before it reaches the index or its write overlay; errors.As
// recovers the point's position in the input and the offending axis.
type NonFiniteError = rtree.NonFiniteError

func indexConfig(cfg IndexConfig) (*pagestore.Accountant, rtree.Config) {
	acct := pagestore.NewAccountant(cfg.BufferPages)
	return acct, rtree.Config{
		Dim:        cfg.Dim,
		MaxEntries: cfg.NodeCapacity,
		Accountant: acct,
	}
}

// Insert adds a data point with its identifier. On a packed index the
// insert lands in the delta overlay — the packed base keeps serving, and
// the insert is safe under concurrent readers; Pack or the background
// compactor folds the overlay into a fresh base. On a NewIndex before its
// first read it mutates the R*-tree builder directly (no concurrent
// readers). A rejected insert (dimension mismatch, or a non-finite
// coordinate: *NonFiniteError) changes nothing.
func (ix *Index) Insert(p Point, id int64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed.Load() {
		return ErrSnapshotClosed
	}
	v := ix.view.Load()
	if v.packed == nil {
		return v.tree.Insert(geom.Point(p), id) // same dimension and finiteness checks
	}
	if len(p) != v.tree.Dim() {
		return fmt.Errorf("rtree: point dimension %d, tree dimension %d", len(p), v.tree.Dim())
	}
	if err := rtree.CheckFinite(0, geom.Point(p)); err != nil {
		return err
	}
	nv, err := ix.applyInsert(v, geom.Point(p).Clone(), id)
	if err != nil {
		return err
	}
	ix.log = append(ix.log, overlay.Mutation{P: geom.Point(p).Clone(), ID: id})
	ix.view.Store(nv)
	ix.kickCompactor(nv)
	return nil
}

// Delete removes one occurrence of (p, id); it reports whether a matching
// entry existed. On a packed index the delete either physically removes an
// overlay point or tombstones a base occurrence — the packed base keeps
// serving, and the delete is safe under concurrent readers. On a NewIndex
// before its first read it mutates the R*-tree builder directly (no
// concurrent readers). A no-op delete changes nothing.
func (ix *Index) Delete(p Point, id int64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed.Load() {
		return false
	}
	v := ix.view.Load()
	if v.packed == nil {
		return v.tree.Delete(geom.Point(p), id)
	}
	if len(p) != v.tree.Dim() {
		return false
	}
	if ix.prepare() != nil {
		return false // unverifiable mapping; queries report why
	}
	nv, ok := ix.applyDelete(v, geom.Point(p).Clone(), id)
	if !ok {
		return false
	}
	ix.log = append(ix.log, overlay.Mutation{Del: true, P: geom.Point(p).Clone(), ID: id})
	ix.view.Store(nv)
	ix.kickCompactor(nv)
	return true
}

// Pack folds the index into a fresh packed base: the immutable flat
// structure-of-arrays arena every query traverses. BuildIndex and the
// snapshot opens produce one directly. On a NewIndex before its first
// read Pack freezes the insertion builder into the base, as that read
// would (structure preserved, so results and node accesses are
// unchanged); from then on mutations go through the overlay. On a packed
// index with overlay writes Pack compacts synchronously: base and overlay
// are folded into a fresh packed base (equivalent to Compact, with any
// error recorded in Stats). Pack is safe under concurrent readers.
func (ix *Index) Pack() {
	if ix.closed.Load() {
		return
	}
	switch v := ix.view.Load(); {
	case v.packed == nil:
		ix.freeze()
	case v.ov != nil:
		ix.Compact() // error recorded in Stats; old view keeps serving on failure
	}
}

// IsPacked reports whether the index has its packed base. Overlay writes
// do not unpack the base: a built or snapshot-opened index stays packed
// across Insert/Delete. Only a NewIndex before its first read (or Pack)
// reports false.
func (ix *Index) IsPacked() bool {
	return ix.view.Load().packed != nil
}

// Len returns the number of live points: base points not masked by a
// delete tombstone, plus overlay inserts.
func (ix *Index) Len() int {
	v := ix.view.Load()
	n := v.tree.Len()
	if v.ov != nil {
		n += len(v.ov.pts) - v.ov.tombs.Total()
	}
	return n
}

// Dim returns the index dimensionality.
func (ix *Index) Dim() int { return ix.view.Load().tree.Dim() }

// Bounds returns the MBR of the indexed points as (lo, hi); ok is false
// when the index is empty.
func (ix *Index) Bounds() (lo, hi Point, ok bool) {
	if ix.acquire() != nil {
		return nil, nil, false // closed mapping; opens/queries report why
	}
	defer ix.release()
	if ix.prepare() != nil {
		return nil, nil, false // corrupt mapping; opens/queries report why
	}
	v := ix.view.Load()
	r, ok := v.tree.Bounds()
	if v.ov != nil && len(v.ov.pts) > 0 {
		// Overlay inserts can extend the MBR. Deletes are not shrunk
		// until compaction, so the bounds are conservative (never too
		// small) on a mutated index.
		or := geom.BoundingRect(v.ov.pts)
		if ok {
			or = or.Union(r)
		}
		r, ok = or, true
	}
	if !ok {
		return nil, nil, false
	}
	return Point(r.Lo), Point(r.Hi), true
}

// Cost reports simulated I/O: either one query's cost (the WithCost query
// variants) or the index-wide aggregate since the last ResetCost
// (Index.Cost). Per-query costs always sum exactly to the aggregate they
// accrued, even under concurrency.
type Cost struct {
	// NodeAccesses is the paper's NA metric: physical node reads (buffer
	// misses when a buffer is attached, all logical accesses otherwise).
	NodeAccesses int64
	// LogicalAccesses counts every node visit, before buffering.
	LogicalAccesses int64
	// BufferHits counts accesses served by the LRU buffer.
	BufferHits int64
}

func costOf(tk pagestore.CostTracker) Cost {
	return Cost{
		NodeAccesses:    tk.Physical,
		LogicalAccesses: tk.Logical,
		BufferHits:      tk.Hits,
	}
}

// Add merges another cost into c (to aggregate per-query costs).
func (c *Cost) Add(o Cost) {
	c.NodeAccesses += o.NodeAccesses
	c.LogicalAccesses += o.LogicalAccesses
	c.BufferHits += o.BufferHits
}

// Cost returns the access counts accumulated across all queries.
func (ix *Index) Cost() Cost { return costOf(ix.acct.Totals()) }

// ResetCost zeroes the counters, keeping any buffer contents warm.
func (ix *Index) ResetCost() { ix.acct.Reset() }

// ResetCostCold zeroes the counters and drops the buffer contents.
func (ix *Index) ResetCostCold() { ix.acct.ResetAll() }

// CheckInvariants validates the structure of the packed base — node fill,
// exact routing rectangles, levels, size and height — and of the
// overlay's delta tree when present (exposed for tests and diagnostics).
// On a mapped index the snapshot's checksum and structural validation run
// first.
func (ix *Index) CheckInvariants() error {
	if err := ix.acquire(); err != nil {
		return err
	}
	defer ix.release()
	if err := ix.prepare(); err != nil {
		return err
	}
	v := ix.view.Load()
	if err := v.tree.CheckInvariants(); err != nil {
		return err
	}
	if v.ov != nil && v.ov.delta != nil {
		return v.ov.delta.Tree().CheckInvariants()
	}
	return nil
}

// NearestNeighbors answers a classical point-NN query (k nearest indexed
// points to q) with the best-first algorithm of [HS99] — the n = 1 special
// case of a GNN query, exposed because it is independently useful.
func (ix *Index) NearestNeighbors(q Point, k int) ([]Result, error) {
	res, _, err := ix.NearestNeighborsWithCost(q, k)
	return res, err
}

// NearestNeighborsWithCost is NearestNeighbors returning the query's own
// I/O cost alongside the results.
func (ix *Index) NearestNeighborsWithCost(q Point, k int) ([]Result, Cost, error) {
	if len(q) != ix.Dim() {
		return nil, Cost{}, fmt.Errorf("gnn: query dimension %d, index dimension %d", len(q), ix.Dim())
	}
	if k < 1 {
		return nil, Cost{}, core.ErrBadK
	}
	if err := rtree.CheckFinite(0, geom.Point(q)); err != nil {
		return nil, Cost{}, err
	}
	if err := ix.acquire(); err != nil {
		return nil, Cost{}, err
	}
	defer ix.release()
	if err := ix.prepare(); err != nil {
		return nil, Cost{}, err
	}
	var tk pagestore.CostTracker
	v := ix.view.Load()
	if v.ov == nil {
		nbs := v.packed.Reader(&tk).NearestBF(geom.Point(q), k)
		out := make([]Result, len(nbs))
		for i, nb := range nbs {
			out[i] = Result{Point: Point(nb.Point), ID: nb.ID, Dist: nb.Dist}
		}
		return out, costOf(tk), nil
	}
	return ix.nearestOverlay(v, geom.Point(q), k, &tk)
}

// nearestOverlay merges the base NN stream (tombstoned hits skipped),
// the delta-tree NN stream and the exact pending distances into the k
// nearest live points. Cost is the sum of both tree traversals' node
// accesses; the pending tail is a memory array and charges nothing. A
// stream's emitted point is only valid until it advances, so each taken
// result is copied into one slab the caller owns, and the output is
// sized by the points the view holds, not by k.
func (ix *Index) nearestOverlay(v *viewState, q geom.Point, k int, tk *pagestore.CostTracker) ([]Result, Cost, error) {
	ov := v.ov
	base := v.packed.Reader(tk).NewNNIterator(q)
	defer base.Close()
	nextBase := func() (rtree.Neighbor, bool) {
		for {
			nb, ok := base.Next()
			if !ok {
				return rtree.Neighbor{}, false
			}
			if ov.tombs.Rejects(nb.Point, nb.ID) {
				continue
			}
			return nb, true
		}
	}
	nextDelta := func() (rtree.Neighbor, bool) { return rtree.Neighbor{}, false }
	if ov.delta != nil {
		delta := ov.delta.Reader(tk).NewNNIterator(q)
		defer delta.Close()
		nextDelta = func() (rtree.Neighbor, bool) { return delta.Next() }
	}
	pend := core.ScanNeighbors(ov.pts[ov.folded:], ov.ids[ov.folded:], q)
	pi := 0
	nextPend := func() (rtree.Neighbor, bool) {
		if pi >= len(pend) {
			return rtree.Neighbor{}, false
		}
		g := pend[pi]
		pi++
		return rtree.Neighbor{Point: g.Point, ID: g.ID, Dist: g.Dist}, true
	}

	type head struct {
		nb   rtree.Neighbor
		ok   bool
		next func() (rtree.Neighbor, bool)
	}
	heads := []head{{next: nextBase}, {next: nextDelta}, {next: nextPend}}
	for i := range heads {
		heads[i].nb, heads[i].ok = heads[i].next()
	}
	n, dim := min(k, v.tree.Len()+len(ov.pts)), len(q)
	out := make([]Result, 0, n)
	slab := make([]float64, 0, n*dim)
	for len(out) < k {
		pick := -1
		for i := range heads {
			if !heads[i].ok {
				continue
			}
			if pick == -1 || heads[i].nb.Dist < heads[pick].nb.Dist {
				pick = i
			}
		}
		if pick == -1 {
			break
		}
		nb := heads[pick].nb
		s := len(slab)
		slab = append(slab, nb.Point...)
		out = append(out, Result{Point: Point(slab[s : s+dim : s+dim]), ID: nb.ID, Dist: nb.Dist})
		heads[pick].nb, heads[pick].ok = heads[pick].next()
	}
	return out, costOf(*tk), nil
}

func toResults(gs []core.GroupNeighbor) []Result {
	out := make([]Result, len(gs))
	for i, g := range gs {
		out[i] = Result{Point: Point(g.Point), ID: g.ID, Dist: g.Dist}
	}
	return out
}

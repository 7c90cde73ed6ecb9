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
// Data points live in an R-tree (Index). Memory-resident query groups are
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
// NewIndex buffers the points inserted into it; its first read (or
// Compact) STR-packs the buffered points into a packed base, as
// BuildIndex packs its input.
//
// Writes under live traffic: Insert and Delete are safe to call
// concurrently with any number of readers, on every index.
// Mutations never touch the immutable base — inserts land in a small
// delta overlay (a pending tail folded into a packed mini tree) and
// deletes tombstone base points or physically remove overlay points — and
// every write publishes a new immutable index view atomically, so an
// in-flight query keeps traversing the consistent view it started on.
// One module, internal/shard, owns a view: its base arenas and its
// overlay, the writes that build a successor, the reads and the fold.
// Every read runs the base's arenas, the delta tree and the pending tail
// as one list of sources: a k-best query under one shared pruning bound
// and one merge, an iterator or point-NN query as a lazy merge of their
// ascending streams. It returns exactly what a fresh index over the live
// point set would return. This package orders the writers: Compact (or
// the background compactor, see StartCompactor) folds the overlay back
// into a fresh packed base off the hot path and swaps it in under live
// readers, replaying the writes that landed during the fold. Before its
// first read, a NewIndex's writes edit its buffer of points under the
// same writer lock.
//
// Scale-out: BuildShardedIndex Hilbert-partitions the data set into S
// independent packed R-trees, and the Index it returns answers the same
// query surface by scatter-gather — per-shard kernels share a
// monotonically tightening best-distance bound and a k-way merge
// reassembles the answer — with the distances of an unpartitioned index
// rank for rank (exact equal-distance ties may resolve to a different
// tied point) and per-query costs that are the exact sum of per-shard
// node accesses. The partition is chosen at construction and kept across
// compactions and snapshots.
//
// Persistence: WriteSnapshot serialises the packed serving arena (or
// every shard's, with the partition) in a versioned, checksummed binary
// format (internal/snapshot) and OpenSnapshot cold-starts from either
// kind without re-bulk-loading — with results, costs and node accesses
// bit-identical to the index that wrote it. See the README's
// "Persistence" section.
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/mmapfile"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/shard"
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
	// NodeCapacity is the R-tree fanout M (default 50, the paper's 1 KB
	// pages).
	NodeCapacity int
	// BufferPages attaches an LRU buffer of that many pages to the
	// index's access accounting; 0 disables buffering.
	BufferPages int
}

// Index is an R-tree over the data set P. Build one with NewIndex (empty,
// then Insert), BuildIndex (bulk load), BuildShardedIndex (bulk load into
// Hilbert shards) or a snapshot open. All read operations are safe for
// unlimited concurrent callers, and so are Insert and Delete.
//
// Queries traverse the index's packed base: one flat, cache-friendly SoA
// arena, or one per shard of a BuildShardedIndex or a sharded snapshot.
// The base is immutable: Insert and Delete on a packed index go into a
// delta overlay (see the package comment); Compact or the background
// compactor folds the overlay back into a fresh base of the same kind.
// A NewIndex buffers its points until its first read (or Compact), which
// STR-packs them into the base exactly as BuildIndex would pack the same
// points in insertion order.
type Index struct {
	// view is the index's current immutable serving state: base and write
	// overlay. Readers load it once per operation (lock-free); writers
	// build a successor under mu and publish it atomically. It is nil
	// only before a NewIndex's first read, while writes edit slab.
	view atomic.Pointer[shard.Set]
	// rcfg is the build geometry, its defaults resolved; its Accountant
	// collects every query's node accesses.
	rcfg rtree.Config

	// mu serializes writers: Insert, Delete and a compaction's capture
	// and swap steps. Readers take it only before a NewIndex's first read.
	mu sync.Mutex
	// slab holds a NewIndex's points until its first read packs them
	// (under mu); empty once the index has a packed base.
	slab pointSlab
	// logging is set (under mu) while a compaction cycle folds a view it
	// captured; log then records the effective writes published after
	// that view, which the cycle replays onto its fresh base.
	logging bool
	log     []mutation
	// comp is the background compactor, nil unless StartCompactor ran.
	comp *compactor
	// compactMu serializes whole compaction cycles (manual Compact vs
	// the background loop) so two repacks never interleave.
	compactMu sync.Mutex
	// persist is the crash-safe rotation target ("" = no on-disk
	// rotation), set by StartCompactor; guarded by mu.
	persist string

	compactGen atomic.Uint64          // completed compactions
	compactNS  atomic.Int64           // duration of the last compaction
	compactErr atomic.Pointer[string] // last compaction error ("" = none)

	// lifecycle holds the file view of a zero-copy open
	// (OpenSnapshotMapped, OpenShardedSnapshotMapped) and the references
	// that keep it mapped.
	lifecycle
}

// prepare readies the index for a traversal: it fails fast on a closed
// mapping, packs a NewIndex's buffered points into its packed base at the
// first read, and forces the deferred verification of a mapped open (lazy
// checksum + structure validation, run once). Writers that already hold
// mu call it only on packed views, where it never locks.
func (ix *Index) prepare() error {
	if ix.closed.Load() {
		return ErrSnapshotClosed
	}
	s := ix.view.Load()
	if s == nil {
		var err error
		if s, err = ix.freeze(); err != nil {
			return err
		}
	}
	return s.Prepare()
}

// freeze packs the buffered points of a never-read NewIndex into the
// index's packed base and publishes it; from then on mutations go through
// the overlay. It returns the current view, packed.
func (ix *Index) freeze() (*shard.Set, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	s := ix.view.Load()
	if s == nil {
		var err error
		if s, err = ix.slab.pack(ix.rcfg); err != nil {
			return nil, err
		}
		ix.view.Store(s)
		ix.slab = pointSlab{}
	}
	return s, nil
}

// mutation is one effective write that a compaction cycle replays onto
// its fresh base: an insert that landed in the overlay (or resurrected a
// tombstoned point), or a delete that removed a live point. No-ops never
// enter the log, so replaying it onto the fold of the view the cycle
// captured reproduces the live multiset exactly.
type mutation struct {
	del bool
	p   geom.Point
	id  int64
}

// pointSlab is a NewIndex's buffer of inserted points, in insertion
// order, each a copy the index owns.
type pointSlab struct {
	pts []geom.Point
	ids []int64
}

// delete removes the newest (p, id) and reports whether there was one.
func (s *pointSlab) delete(p geom.Point, id int64) bool {
	for i := len(s.ids) - 1; i >= 0; i-- {
		if s.ids[i] == id && s.pts[i].Equal(p) {
			s.pts = slices.Delete(s.pts, i, i+1)
			s.ids = slices.Delete(s.ids, i, i+1)
			return true
		}
	}
	return false
}

// pack bulk-loads the buffered points into one arena, exactly as
// BuildIndex loads the same points; the slab is left as it was.
func (s *pointSlab) pack(cfg rtree.Config) (*shard.Set, error) {
	cols, err := rtree.Columns(cfg, s.pts)
	if err != nil {
		return nil, err
	}
	return shard.Pack(cfg, cols, slices.Clone(s.ids))
}

// lifecycle keeps the file view of a mapped open alive under every read
// that may touch it. A read takes a reference (acquire) before it loads
// the index view and drops it (release) when done. Close flips closed,
// drains every reference and unmaps. A compaction that swaps a heap base
// over the mapped one retires the mapping instead (retire): the file is
// unmapped as soon as the references taken before that swap are gone,
// since only those can hold a view of the mapped base.
//
// Index embeds it; for every construction but a mapped open file is nil,
// retire does nothing and Close leaves closed unset.
type lifecycle struct {
	// file is the mapping; nil unless the index was opened mapped. It
	// stays set after the unmap, so a closed mapped index still fails its
	// queries with ErrSnapshotClosed.
	file   *mmapfile.File
	closed atomic.Bool
	// retired flips once, when a compaction publishes a view whose base
	// no longer borrows the mapping. refs[0] counts the references taken
	// before that, refs[1] those taken after.
	retired  atomic.Bool
	refs     [2]atomic.Int64
	unmap    sync.Once
	unmapErr error
}

// ref names the counter a reference was taken on.
type ref uint8

// acquire registers an inflight read. The order — increment, then check
// closed — pairs with Close's flip-then-drain: a reader that saw closed
// == false has already published its reference, so Close cannot observe
// a drained count before that reader releases. The same order pairs with
// retire's publish-then-flip: a reader counted on refs[1] loads its view
// after the swap, so it never sees the mapped base.
func (l *lifecycle) acquire() (ref, error) {
	var r ref
	if l.retired.Load() {
		r = 1
	}
	l.refs[r].Add(1)
	if l.closed.Load() {
		l.release(r)
		return r, ErrSnapshotClosed
	}
	return r, nil
}

// release retires a reference taken by acquire. The last reference taken
// before a retire unmaps the file.
func (l *lifecycle) release(r ref) {
	if l.refs[r].Add(-1) == 0 && r == 0 && l.retired.Load() {
		l.unmapFile()
	}
}

// retire releases the mapping once no reference taken before this call
// is held: the last such release unmaps it. The compaction calls it under
// the writer lock, right after it published a view whose base no longer
// borrows the mapping. The caller must hold a reference taken before that
// swap, so the unmap always happens in release; later compactions find
// the mapping retired already.
func (l *lifecycle) retire() {
	if l.file != nil {
		l.retired.Store(true)
	}
}

// unmapFile unmaps the file exactly once, whichever of release and Close
// gets there first.
func (l *lifecycle) unmapFile() {
	l.unmap.Do(func() { l.unmapErr = l.file.Close() })
}

// shut marks a mapped index closed, waits for every inflight read to
// release and unmaps the file unless a compaction did already. A second
// call returns nil at once.
func (l *lifecycle) shut() error {
	if l.closed.Swap(true) {
		return nil // another Close won the race and owns the drain
	}
	for i := range l.refs {
		drainRefs(&l.refs[i])
	}
	l.unmapFile()
	return l.unmapErr
}

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

// newIndex wraps a base into an Index with its initial view published;
// a NewIndex passes no base (set nil) until its first read packs the
// buffered points. rcfg is the build geometry with its defaults
// resolved.
func newIndex(set *shard.Set, rcfg rtree.Config) *Index {
	ix := &Index{rcfg: rcfg}
	if set != nil {
		ix.view.Store(set)
	}
	empty := ""
	ix.compactErr.Store(&empty)
	return ix
}

// NewIndex returns an empty index that buffers its points: Insert appends
// to the buffer and Delete removes the newest matching point from it,
// safely under concurrent callers, until the first read (or Compact)
// STR-packs the buffered points into the packed base every query
// traverses — the base BuildIndex builds from the same points in
// insertion order, so answers and Cost match it exactly.
func NewIndex(cfg IndexConfig) (*Index, error) {
	empty, err := rtree.PackSTR(indexConfig(cfg), nil, nil) // validates the configuration
	if err != nil {
		return nil, err
	}
	return newIndex(nil, empty.Tree().Config()), nil
}

// BuildIndex bulk-loads an index from points using sort-tile-recursive
// packing. ids[i] identifies points[i]; pass nil to use the slice index.
func BuildIndex(points []Point, ids []int64, cfg IndexConfig) (*Index, error) {
	rcfg := indexConfig(cfg)
	cols, err := rtree.Columns(rcfg, points)
	if err != nil {
		return nil, err
	}
	set, err := shard.Pack(rcfg, cols, slices.Clone(ids))
	if err != nil {
		return nil, err
	}
	return newIndex(set, set.Config()), nil
}

// BuildShardedIndex bulk-loads an index whose base is partitioned into
// the given number of shards: the points are sorted by Hilbert value, the
// curve is cut into that many spatially coherent runs of equal size, and
// each run is STR-packed into its own arena. ids[i] identifies points[i];
// pass nil to use the slice index. cfg applies to every shard (they share
// one access accountant and, when cfg.BufferPages > 0, one LRU buffer
// over disjoint page IDs).
//
// The index answers every query by scatter-gather: the chosen algorithm
// runs against each shard, the shards continuously exchange their
// best-found aggregate distance so each one prunes the others' search
// space, and a k-way merge reassembles the global answer. It returns the
// results an equally configured BuildIndex over the same points returns
// — sharding is an execution strategy, not an approximation. Aggregate
// distances match rank for rank, bit for bit; the one latitude is exact
// ties: when distinct points share exactly the same aggregate distance
// at the k-th boundary, the representative kept may be a different
// member of the tie than the single traversal's first-come choice. Its
// per-query cost is exactly the sum of the per-shard node accesses.
// Compaction re-partitions base plus overlay into the same number of
// shards, and snapshots keep the partition. NearestNeighbors,
// GroupNNFromSet and GroupNNClosestPairs need one arena and fail with
// ErrPartitioned.
//
// Use it when query groups are spatially concentrated relative to the
// data spread (the common case: a few users in one city, points of
// interest across a country): the merge then touches one or two shards
// seriously and the rest are pruned by the shared bound after a handful
// of node accesses. See the README's "Sharding" section for guidance.
func BuildShardedIndex(points []Point, ids []int64, shards int, cfg IndexConfig) (*Index, error) {
	if shards < 1 {
		return nil, fmt.Errorf("gnn: %d shards; need at least 1", shards)
	}
	rcfg := indexConfig(cfg)
	cols, err := rtree.Columns(rcfg, points)
	if err != nil {
		return nil, err
	}
	set, err := shard.Build(rcfg, cols, slices.Clone(ids), shards)
	if err != nil {
		return nil, err
	}
	return newIndex(set, set.Config()), nil
}

// NonFiniteError reports a point with a NaN, infinite or out-of-range
// coordinate: every coordinate must be finite and at most 1e150 in
// magnitude, so that no squared distance overflows. BuildIndex,
// BuildShardedIndex, Insert and every query reject such a point before it
// reaches the index, its write overlay or a kernel; errors.As recovers
// the point's position in the input and the offending axis.
type NonFiniteError = rtree.NonFiniteError

// ErrPartitioned reports NearestNeighbors, GroupNNFromSet or
// GroupNNClosestPairs on an index built by BuildShardedIndex or opened
// from a sharded snapshot: these traversals need the one arena of an
// unpartitioned base.
var ErrPartitioned = shard.ErrPartitioned

func indexConfig(cfg IndexConfig) rtree.Config {
	return rtree.Config{
		Dim:        cfg.Dim,
		MaxEntries: cfg.NodeCapacity,
		Accountant: pagestore.NewAccountant(cfg.BufferPages),
	}
}

// Insert adds a data point with its identifier. On a packed index the
// insert lands in the delta overlay — the packed base keeps serving;
// Compact or the background compactor folds the overlay into a fresh
// base. On a NewIndex before its first read it appends a copy of the
// point to the buffer the first read packs. Either way it is safe under
// concurrent readers. A rejected insert (dimension mismatch, or a
// non-finite coordinate: *NonFiniteError) changes nothing.
func (ix *Index) Insert(p Point, id int64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed.Load() {
		return ErrSnapshotClosed
	}
	if len(p) != ix.Dim() {
		return fmt.Errorf("rtree: point dimension %d, tree dimension %d", len(p), ix.Dim())
	}
	if err := rtree.CheckFinite(0, geom.Point(p)); err != nil {
		return err
	}
	pc := geom.Point(p).Clone()
	s := ix.view.Load()
	if s == nil {
		ix.slab.pts = append(ix.slab.pts, pc)
		ix.slab.ids = append(ix.slab.ids, id)
		return nil
	}
	ns, err := s.Insert(pc, id)
	if err != nil {
		return err
	}
	ix.publish(ns, mutation{p: pc, id: id})
	return nil
}

// Delete removes one occurrence of (p, id); it reports whether a matching
// entry existed. On a packed index the delete either physically removes an
// overlay point or tombstones a base occurrence — the packed base keeps
// serving. On a NewIndex before its first read it removes the newest
// matching point from the buffer. Either way it is safe under concurrent
// readers. A no-op delete changes nothing.
func (ix *Index) Delete(p Point, id int64) bool {
	// Counting the base occurrences reads the arena, so the delete holds a
	// lifecycle reference like every other read of it.
	r, err := ix.acquire()
	if err != nil {
		return false
	}
	defer ix.release(r)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(p) != ix.Dim() {
		return false
	}
	s := ix.view.Load()
	if s == nil {
		return ix.slab.delete(geom.Point(p), id)
	}
	if ix.prepare() != nil {
		return false // unverifiable mapping; queries report why
	}
	pc := geom.Point(p).Clone()
	ns, ok := s.Delete(pc, id)
	if !ok {
		return false
	}
	ix.publish(ns, mutation{del: true, p: pc, id: id})
	return true
}

// publish stores the successor view of the effective write m, logs m
// while a compaction cycle will replay it, and nudges the compactor.
// Called under mu. The view and the log share m's point; neither edits
// it.
func (ix *Index) publish(s *shard.Set, m mutation) {
	if ix.logging {
		ix.log = append(ix.log, m)
	}
	ix.view.Store(s)
	ix.kickCompactor(s)
}

// overlaySize is a view's overlay footprint for compaction triggering:
// overlay inserts plus masked base occurrences.
func overlaySize(s *shard.Set) int {
	inserts, tombstones := s.Overlay()
	return inserts + tombstones
}

// Len returns the number of live points: base points not masked by a
// delete tombstone, plus overlay inserts, or the buffered points of a
// NewIndex before its first read.
func (ix *Index) Len() int {
	s := ix.view.Load()
	if s == nil {
		ix.mu.Lock()
		defer ix.mu.Unlock()
		if s = ix.view.Load(); s == nil {
			return len(ix.slab.ids)
		}
	}
	return s.Len()
}

// Dim returns the index dimensionality.
func (ix *Index) Dim() int { return ix.rcfg.Dim }

// Bounds returns the MBR of the indexed points — of every shard on a
// partitioned index — as (lo, hi); ok is false when the index is empty.
// Overlay inserts extend it at once, but deletes shrink it only at the
// next compaction, so on a mutated index it may be larger than the live
// points' MBR, never smaller.
func (ix *Index) Bounds() (lo, hi Point, ok bool) {
	held, err := ix.acquire()
	if err != nil {
		return nil, nil, false // closed mapping; opens/queries report why
	}
	defer ix.release(held)
	if ix.prepare() != nil {
		return nil, nil, false // corrupt mapping; opens/queries report why
	}
	r, ok := ix.view.Load().Bounds()
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

// Cost returns the access counts accumulated across all queries (and all
// shards) since the last ResetCost.
func (ix *Index) Cost() Cost { return costOf(ix.rcfg.Accountant.Totals()) }

// ResetCost zeroes the counters, keeping any buffer contents warm.
func (ix *Index) ResetCost() { ix.rcfg.Accountant.Reset() }

// ResetCostCold zeroes the counters and drops the buffer contents.
func (ix *Index) ResetCostCold() { ix.rcfg.Accountant.ResetAll() }

// CheckInvariants validates the structure of the packed base (every
// shard's) — node fill, exact routing rectangles, levels, size and
// height — and of the overlay's delta tree when present (exposed for
// tests and diagnostics). On a mapped index the snapshot's checksum and
// structural validation run first.
func (ix *Index) CheckInvariants() error {
	r, err := ix.acquire()
	if err != nil {
		return err
	}
	defer ix.release(r)
	if err := ix.prepare(); err != nil {
		return err
	}
	return ix.view.Load().CheckInvariants()
}

// NearestNeighbors answers a classical point-NN query (k nearest indexed
// points to q) with the best-first algorithm of [HS99] — the n = 1 special
// case of a GNN query, exposed because it is independently useful. It
// fails with ErrPartitioned on a sharded index.
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
	r, err := ix.acquire()
	if err != nil {
		return nil, Cost{}, err
	}
	defer ix.release(r)
	if err := ix.prepare(); err != nil {
		return nil, Cost{}, err
	}
	var tk pagestore.CostTracker
	nbs, err := ix.view.Load().Nearest(geom.Point(q), k, &tk)
	if err != nil {
		return nil, Cost{}, err
	}
	return toResults(nbs), costOf(tk), nil
}

func toResults(gs []core.GroupNeighbor) []Result {
	out := make([]Result, len(gs))
	for i, g := range gs {
		out[i] = Result{Point: Point(g.Point), ID: g.ID, Dist: g.Dist}
	}
	return out
}

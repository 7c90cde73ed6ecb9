package gnn

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/overlay"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/shard"
	"gnn/internal/snapshot"
)

// ShardedIndex partitions the data set into S independent packed R-trees
// (Hilbert partitioning: sort by Hilbert value, cut the curve into S
// spatially coherent runs) and answers every query by scatter-gather:
// the chosen algorithm runs against each shard, the shards continuously
// exchange their best-found aggregate distance so each one prunes the
// others' search space, and a k-way merge reassembles the global answer.
//
// A ShardedIndex returns the results an equally configured Index over
// the same points returns — sharding is an execution strategy, not an
// approximation. Aggregate distances match rank for rank, bit for bit;
// the one latitude is exact ties: when distinct points share exactly the
// same aggregate distance at the k-th boundary, the representative kept
// may be a different member of the tie than the single traversal's
// first-come choice. Its reported per-query cost is exactly the sum of
// the per-shard node accesses.
//
// The shard set itself is immutable, but the index accepts writes under
// live traffic exactly like a packed Index: Insert and Delete land in a
// delta overlay merged into every query, and Compact (or the background
// compactor) re-partitions base plus overlay into a fresh shard set,
// swapped in atomically under live readers. See the package comment's
// "Writes under live traffic" paragraph.
//
// Use it when query groups are spatially concentrated relative to the
// data spread (the common case: a few users in one city, points of
// interest across a country): the merge then touches one or two shards
// seriously and the rest are pruned by the shared bound after a handful
// of node accesses. See the README's "Sharding" section for guidance.
type ShardedIndex struct {
	// view is the current immutable serving state: shard set plus write
	// overlay. Readers load it once per operation; writers build a
	// successor under mu and publish it atomically.
	view   atomic.Pointer[shardedView]
	acct   *pagestore.Accountant
	rcfg   rtree.Config
	shards int

	// Writer state; the same discipline as Index (see gnn.go).
	mu        sync.Mutex
	log       []overlay.Mutation
	comp      *compactor
	compactMu sync.Mutex
	persist   string

	compactGen atomic.Uint64
	compactNS  atomic.Int64
	compactErr atomic.Pointer[string]

	// lifecycle holds the file view of a zero-copy open
	// (OpenShardedSnapshotMapped) and the references that keep it mapped;
	// see Index.
	lifecycle
}

// shardedView is one immutable serving version of a ShardedIndex: the
// sharded twin of viewState. A shard set is always packed, so there is
// no unread phase — every ShardedIndex mutates through the overlay.
type shardedView struct {
	set *shard.Set
	ov  *overlayState
	seq uint64
}

// succ returns a successor view carrying the (possibly nil-normalised)
// overlay.
func (v *shardedView) succ(ov *overlayState) *shardedView {
	if ov.empty() {
		ov = nil
	}
	return &shardedView{set: v.set, ov: ov, seq: v.seq + 1}
}

// overlaySize mirrors viewState.overlaySize.
func (v *shardedView) overlaySize() int {
	if v.ov == nil {
		return 0
	}
	return len(v.ov.pts) + v.ov.tombs.Total()
}

// newShardedOver wraps a constructed shard set into a ShardedIndex with
// its initial view published.
func newShardedOver(set *shard.Set, acct *pagestore.Accountant, rcfg rtree.Config) *ShardedIndex {
	sx := &ShardedIndex{acct: acct, rcfg: rcfg, shards: set.NumShards()}
	sx.view.Store(&shardedView{set: set})
	empty := ""
	sx.compactErr.Store(&empty)
	return sx
}

// prepare readies the sharded index for a traversal: it fails fast on a
// closed mapping and forces the deferred verification of a mapped open
// (once for the whole snapshot). A no-op for built sets and for a heap
// open, which verified at the open.
func (sx *ShardedIndex) prepare() error {
	if sx.closed.Load() {
		return ErrSnapshotClosed
	}
	return sx.view.Load().set.Prepare()
}

// applierFor binds the shared write logic to one sharded view.
func (sx *ShardedIndex) applierFor(v *shardedView) applier {
	return applier{dcfg: deltaConfig(sx.rcfg), baseCount: v.set.CountExact}
}

// applyInsert returns the successor view for inserting (p, id).
func (sx *ShardedIndex) applyInsert(v *shardedView, p geom.Point, id int64) (*shardedView, error) {
	nov, err := sx.applierFor(v).insert(v.ov, p, id)
	if err != nil {
		return nil, err
	}
	return v.succ(nov), nil
}

// applyDelete returns the successor view for deleting one occurrence of
// (p, id), and whether a matching live entry existed.
func (sx *ShardedIndex) applyDelete(v *shardedView, p geom.Point, id int64) (*shardedView, bool) {
	nov, ok := sx.applierFor(v).delete(v.ov, p, id)
	if !ok {
		return nil, false
	}
	return v.succ(nov), true
}

// BuildShardedIndex bulk-loads a sharded index over points with the given
// shard count. ids[i] identifies points[i]; pass nil to use the slice
// index. cfg applies to every shard (they share one access accountant
// and, when cfg.BufferPages > 0, one LRU buffer over disjoint page IDs).
func BuildShardedIndex(points []Point, ids []int64, shards int, cfg IndexConfig) (*ShardedIndex, error) {
	if shards < 1 {
		return nil, fmt.Errorf("gnn: %d shards; need at least 1", shards)
	}
	acct, rcfg := indexConfig(cfg)
	cols, err := rtree.Columns(rcfg, points)
	if err != nil {
		return nil, err
	}
	set, err := shard.Build(rcfg, cols, slices.Clone(ids), shards)
	if err != nil {
		return nil, err
	}
	return newShardedOver(set, acct, rcfg), nil
}

// Insert adds a data point with its identifier. The insert lands in the
// delta overlay — the immutable shard set keeps serving, and the insert
// is safe under concurrent readers; Compact or the background compactor
// re-partitions it into a fresh shard set. A rejected insert (dimension
// mismatch, or a non-finite coordinate: *NonFiniteError) changes nothing.
func (sx *ShardedIndex) Insert(p Point, id int64) error {
	sx.mu.Lock()
	defer sx.mu.Unlock()
	if sx.closed.Load() {
		return ErrSnapshotClosed
	}
	v := sx.view.Load()
	if len(p) != v.set.Dim() {
		return fmt.Errorf("rtree: point dimension %d, tree dimension %d", len(p), v.set.Dim())
	}
	if err := rtree.CheckFinite(0, geom.Point(p)); err != nil {
		return err
	}
	nv, err := sx.applyInsert(v, geom.Point(p).Clone(), id)
	if err != nil {
		return err
	}
	sx.log = append(sx.log, overlay.Mutation{P: geom.Point(p).Clone(), ID: id})
	sx.view.Store(nv)
	sx.kickCompactor(nv)
	return nil
}

// Delete removes one occurrence of (p, id); it reports whether a matching
// entry existed. The delete either physically removes an overlay point or
// tombstones a base occurrence — the shard set keeps serving, and the
// delete is safe under concurrent readers. A no-op delete changes
// nothing.
func (sx *ShardedIndex) Delete(p Point, id int64) bool {
	// Counting the base occurrences reads the shard arenas; see
	// Index.Delete.
	r, err := sx.acquire()
	if err != nil {
		return false
	}
	defer sx.release(r)
	sx.mu.Lock()
	defer sx.mu.Unlock()
	v := sx.view.Load()
	if len(p) != v.set.Dim() {
		return false
	}
	if sx.prepare() != nil {
		return false // unverifiable mapping; queries report why
	}
	nv, ok := sx.applyDelete(v, geom.Point(p).Clone(), id)
	if !ok {
		return false
	}
	sx.log = append(sx.log, overlay.Mutation{Del: true, P: geom.Point(p).Clone(), ID: id})
	sx.view.Store(nv)
	sx.kickCompactor(nv)
	return true
}

// NumShards returns the number of shards. The count is preserved across
// compactions: the overlay is re-partitioned into the same number of
// shards the index was built with.
func (sx *ShardedIndex) NumShards() int { return sx.shards }

// ShardSizes returns the per-shard point counts of the current base set
// (they differ by at most one: the Hilbert curve is cut into equal
// runs). Un-compacted overlay writes are not included.
func (sx *ShardedIndex) ShardSizes() []int { return sx.view.Load().set.Sizes() }

// Len returns the number of live points: base points not masked by a
// delete tombstone, plus overlay inserts.
func (sx *ShardedIndex) Len() int {
	v := sx.view.Load()
	n := v.set.Len()
	if v.ov != nil {
		n += len(v.ov.pts) - v.ov.tombs.Total()
	}
	return n
}

// Dim returns the index dimensionality.
func (sx *ShardedIndex) Dim() int { return sx.view.Load().set.Dim() }

// Cost returns the access counts accumulated across all queries and all
// shards since the last ResetCost.
func (sx *ShardedIndex) Cost() Cost { return costOf(sx.acct.Totals()) }

// ResetCost zeroes the counters, keeping any buffer contents warm.
func (sx *ShardedIndex) ResetCost() { sx.acct.Reset() }

// ResetCostCold zeroes the counters and drops the buffer contents.
func (sx *ShardedIndex) ResetCostCold() { sx.acct.ResetAll() }

// CheckInvariants validates every shard's packed R-tree structure, plus
// the overlay's delta tree when present. On a mapped index the
// snapshot's checksum and structural validation run first.
func (sx *ShardedIndex) CheckInvariants() error {
	r, err := sx.acquire()
	if err != nil {
		return err
	}
	defer sx.release(r)
	if err := sx.prepare(); err != nil {
		return err
	}
	v := sx.view.Load()
	for i := 0; i < v.set.NumShards(); i++ {
		if err := v.set.Shard(i).Tree.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if v.ov != nil && v.ov.delta != nil {
		if err := v.ov.delta.Tree().CheckInvariants(); err != nil {
			return fmt.Errorf("overlay delta: %w", err)
		}
	}
	return nil
}

// GroupNN answers a GNN query against the sharded index: identical
// results to Index.GroupNN over the same points, computed by parallel
// scatter-gather. Safe for unlimited concurrent callers.
func (sx *ShardedIndex) GroupNN(query []Point, opts ...QueryOption) ([]Result, error) {
	res, _, err := sx.GroupNNWithCost(query, opts...)
	return res, err
}

// defaultScatterWorkers is the scatter width of a latency-oriented
// single query: one worker per available core.
func defaultScatterWorkers() int { return runtime.GOMAXPROCS(0) }

// GroupNNWithCost is GroupNN returning this query's own I/O cost — the
// exact sum of all per-shard node accesses — alongside the results. The
// index-wide aggregate (ShardedIndex.Cost) accrues the same counts.
func (sx *ShardedIndex) GroupNNWithCost(query []Point, opts ...QueryOption) ([]Result, Cost, error) {
	// Single queries default to full parallel scatter for latency.
	return sx.groupNN(query, buildConfig(opts), nil, defaultScatterWorkers())
}

// groupNN scatters one query across the shards and returns its results
// with the query's own cost. ec supplies the sequential-scatter scratch
// arena and the query's cost tracker (the batch engine passes its
// per-worker context; nil draws one from the pool); defaultWorkers
// applies when WithShards was not given.
func (sx *ShardedIndex) groupNN(query []Point, c queryConfig, ec *core.ExecContext, defaultWorkers int) ([]Result, Cost, error) {
	if ec == nil {
		ec = core.AcquireExec()
		defer ec.Release()
	}
	tk := ec.Tracker()
	res, err := sx.answer(query, c, tk, ec, defaultWorkers)
	return res, costOf(*tk), err
}

// answer runs one scattered query on ec's scratch, charging tk.
func (sx *ShardedIndex) answer(query []Point, c queryConfig, tk *pagestore.CostTracker, ec *core.ExecContext, defaultWorkers int) ([]Result, error) {
	kern, err := kernelFor(c.algo)
	if err != nil {
		return nil, err
	}
	r, err := sx.acquire()
	if err != nil {
		return nil, err
	}
	defer sx.release(r)
	v := sx.view.Load()
	if err := c.cancel.Check(); err != nil {
		return nil, err // already expired/canceled on arrival
	}
	if err := sx.prepare(); err != nil {
		return nil, err
	}
	qs, err := groupPoints(ec.Points(len(query)), query)
	if err != nil {
		return nil, err
	}
	opt := c.coreOptions()
	opt.Cost = tk
	opt.Exec = ec
	workers := c.shards
	if workers == 0 {
		workers = defaultWorkers
	}
	if c.probe != nil {
		c.probe.overlay = v.ov != nil
	}
	var gs []core.GroupNeighbor
	if v.ov == nil {
		// No overlay writes: exactly the old scatter-gather, bit for bit.
		gs, err = v.set.Search(qs, opt, workers, kern)
	} else {
		gs, err = shardedOverlayQuery(v, qs, opt, workers, kern, c.k)
	}
	if err != nil {
		return nil, err
	}
	return toResults(gs), nil
}

// shardedOverlayQuery answers a query on a mutated view: the base
// scatter-gather (tombstoned hits vetoed in every shard), the delta tree
// and the pending tail all share one tightening bound and one cost
// tracker, and a final k-way merge reassembles the exact answer — the
// same discipline as the plain index's overlayQuery.
func shardedOverlayQuery(v *shardedView, qs []geom.Point, opt core.Options, workers int, kern shard.Kernel, k int) ([]core.GroupNeighbor, error) {
	ov := v.ov
	shared := core.NewSharedBound()
	lists := make([][]core.GroupNeighbor, 0, 3)
	// The base scatter records its own per-shard "scatter" and "merge"
	// stages inside Search; the overlay sources and final merge are timed
	// here, sequentially.
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

	bopt := opt
	bopt.Shared = shared
	if ov.tombs.Total() > 0 {
		bopt.Reject = ov.tombs.Rejects
	}
	gs, err := v.set.Search(qs, bopt, workers, kern)
	if err != nil {
		return nil, err
	}
	lists = append(lists, gs)
	mark("base")

	if ov.delta != nil {
		dopt := opt
		dopt.Shared = shared
		dopt.Packed = ov.delta
		gs, err := kern(ov.delta.Tree(), qs, dopt)
		if err != nil {
			return nil, err
		}
		lists = append(lists, gs)
		mark("delta")
	}

	if pend := ov.pts[ov.folded:]; len(pend) > 0 {
		sopt := opt
		sopt.Shared = shared
		gs, err := core.ScanPoints(pend, ov.ids[ov.folded:], qs, sopt)
		if err != nil {
			return nil, err
		}
		lists = append(lists, gs)
		mark("pending")
	}
	merged := core.MergeNeighbors(k, lists)
	mark("overlay-merge")
	return merged, nil
}

// GroupNNIterator starts an incremental GNN scan over all shards: the
// per-shard incremental MBM streams merge lazily into one globally
// ascending stream, advancing a shard only when its lower bound is the
// smallest. Results and ordering are identical to Index.GroupNNIterator
// over the same points; its cost is the exact sum of per-shard accesses.
// On a mutated index the overlay's delta tree and pending tail join the
// merge as additional streams.
func (sx *ShardedIndex) GroupNNIterator(query []Point, opts ...QueryOption) (*Iterator, error) {
	c := buildConfig(opts)
	r, err := sx.acquire()
	if err != nil {
		return nil, err
	}
	if err := sx.prepare(); err != nil {
		sx.release(r)
		return nil, err
	}
	v := sx.view.Load()
	qs, err := groupPoints(make([]geom.Point, len(query)), query)
	if err != nil {
		sx.release(r)
		return nil, err
	}
	out := &Iterator{}
	opt := c.coreOptions()
	opt.Cost = &out.tk
	if v.ov == nil {
		it, err := v.set.NewIterator(qs, opt)
		if err != nil {
			sx.release(r)
			return nil, err
		}
		out.it = it
	} else {
		it, err := shardedOverlayIterator(v, qs, opt)
		if err != nil {
			sx.release(r)
			return nil, err
		}
		out.it = it
	}
	out.done = func() { sx.release(r) }
	return out, nil
}

// shardedOverlayIterator merges the base set's lazy shard merge with the
// overlay sources, mirroring the plain index's overlayIterator.
func shardedOverlayIterator(v *shardedView, qs []geom.Point, opt core.Options) (*shard.Iterator, error) {
	ov := v.ov
	streams := make([]core.Stream, 0, 3)
	fail := func(err error) (*shard.Iterator, error) {
		for _, s := range streams {
			s.Close()
		}
		return nil, err
	}

	bopt := opt
	if ov.tombs.Total() > 0 {
		bopt.Reject = ov.tombs.Rejects
	}
	bit, err := v.set.NewIterator(qs, bopt)
	if err != nil {
		return fail(err)
	}
	streams = append(streams, bit)

	if ov.delta != nil {
		dopt := opt
		dopt.Packed = ov.delta
		dit, err := core.NewGNNIterator(ov.delta.Tree(), qs, dopt)
		if err != nil {
			return fail(err)
		}
		streams = append(streams, dit)
	}

	if pend := ov.pts[ov.folded:]; len(pend) > 0 {
		list, err := core.ScanAll(pend, ov.ids[ov.folded:], qs, opt)
		if err != nil {
			return fail(err)
		}
		streams = append(streams, core.NewListStream(list))
	}
	return shard.NewMergedIterator(streams), nil
}

// Stats reports the sharded index's shape. A ShardedIndex always serves
// from its packed shards, so Packed is always true; Height is the
// maximum shard height and Nodes/ArenaBytes sum over the shards.
func (sx *ShardedIndex) Stats() Stats {
	v := sx.view.Load()
	s := Stats{
		Points: sx.Len(),
		Dim:    sx.Dim(),
		Packed: true,
		Shards: sx.NumShards(),
	}
	for i := 0; i < v.set.NumShards(); i++ {
		p := v.set.Shard(i).Packed
		s.Nodes += p.Nodes()
		s.ArenaBytes += p.ArenaBytes()
		if h := p.Height(); h > s.Height {
			s.Height = h
		}
	}
	if v.ov != nil {
		s.Delta = len(v.ov.pts)
		s.Tombstones = v.ov.tombs.Total()
	}
	s.compactStats(sx.compactGen.Load(), sx.compactNS.Load(), sx.compactErr.Load())
	return s
}

// StartCompactor starts the background compactor; the sharded twin of
// Index.StartCompactor. A stale temp file from a crashed previous
// rotation at cfg.Path is removed.
func (sx *ShardedIndex) StartCompactor(cfg CompactorConfig) error {
	cfg = cfg.withDefaults()
	sx.mu.Lock()
	defer sx.mu.Unlock()
	if sx.closed.Load() {
		return ErrSnapshotClosed
	}
	if sx.comp != nil {
		return ErrCompactorRunning
	}
	sx.persist = cfg.Path
	if cfg.Path != "" {
		os.Remove(snapshot.TempPath(cfg.Path))
	}
	c := newCompactor(cfg, func() error { return sx.compactOnce() },
		func() int { return sx.view.Load().overlaySize() })
	sx.comp = c
	go c.loop()
	return nil
}

// StopCompactor stops the background compactor, waiting for an in-flight
// compaction to finish or abort cleanly. Safe to call when none runs.
// Close calls it automatically.
func (sx *ShardedIndex) StopCompactor() {
	sx.mu.Lock()
	c := sx.comp
	sx.comp = nil
	sx.mu.Unlock()
	if c != nil {
		c.halt()
	}
}

// kickCompactor nudges the background loop when a write pushes the
// overlay past the threshold. Called under mu.
func (sx *ShardedIndex) kickCompactor(nv *shardedView) {
	if sx.comp != nil && nv.overlaySize() >= sx.comp.threshold {
		select {
		case sx.comp.kick <- struct{}{}:
		default:
		}
	}
}

// Compact synchronously re-partitions base plus overlay into a fresh
// shard set (same shard count) and swaps it in under live readers; the
// sharded twin of Index.Compact, with the same rotation semantics when a
// persist path is configured. The old set's resident workers are stopped
// after the swap — in-flight queries on it finish on pooled workers.
func (sx *ShardedIndex) Compact() error {
	return sx.compactOnce()
}

func (sx *ShardedIndex) compactOnce() (err error) {
	sx.compactMu.Lock()
	defer sx.compactMu.Unlock()

	// Hold a lifecycle reference for the whole cycle so Close's drain
	// waits for it (the rebuild walks the shard trees, which on a mapped
	// index read the mapping Close would unmap).
	r, err := sx.acquire()
	if err != nil {
		return err
	}
	defer sx.release(r)

	sx.mu.Lock()
	v := sx.view.Load()
	path := sx.persist
	sx.mu.Unlock()
	if v.ov == nil {
		return nil // nothing to fold
	}

	start := time.Now()
	defer func() {
		sx.compactNS.Store(int64(time.Since(start)))
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		sx.compactErr.Store(&msg)
	}()

	// Verify a lazily mapped base before folding it; see
	// Index.compactOnce.
	if err := v.set.Prepare(); err != nil {
		return fmt.Errorf("gnn: compact: %w", err)
	}
	// Re-partition off the write lock: writers and readers proceed
	// against the captured view while this runs.
	cols, ids, err := liveColumns(v.set.Arenas(), v.ov)
	if err != nil {
		return fmt.Errorf("gnn: compact: %w", err)
	}
	nset, err := shard.Build(sx.rcfg, cols, ids, sx.shards)
	if err != nil {
		return fmt.Errorf("gnn: compact: %w", err)
	}

	var persistErr error
	if path != "" {
		persistErr = persistSharded(path, nset)
	}

	sx.mu.Lock()
	defer sx.mu.Unlock()
	if sx.closed.Load() {
		nset.Close()
		return ErrSnapshotClosed
	}
	// Replay the mutations that landed while the rebuild ran onto the
	// fresh set; see Index.compactOnce for the replay argument.
	tail := sx.log[v.seq:]
	nv := &shardedView{set: nset}
	for _, m := range tail {
		if m.Del {
			if nv2, ok := sx.applyDelete(nv, m.P, m.ID); ok {
				nv = nv2
			}
		} else {
			if nv2, aerr := sx.applyInsert(nv, m.P, m.ID); aerr == nil {
				nv = nv2
			}
		}
	}
	nv.seq = uint64(len(tail))
	sx.log = append([]overlay.Mutation(nil), tail...)
	sx.view.Store(nv)
	sx.compactGen.Add(1)
	// Stop the replaced set's resident workers deterministically:
	// in-flight queries holding the old view finish on pooled workers
	// (shard.Set.Close is drain-safe), and the arenas themselves stay
	// reachable until those views are dropped. A mapped file goes once the
	// reads that may hold the old view release; see Index.compactOnce.
	v.set.Close()
	sx.retire()
	return persistErr
}

// persistSharded rotates a snapshot of the shard set into path
// crash-safely, with the same verify-before-rename discipline as
// persistPacked.
func persistSharded(path string, set *shard.Set) error {
	m, trees := set.Snapshot()
	return snapshot.AtomicWriteFile(path, func(w io.Writer) error {
		return snapshot.Write(w, m, trees)
	}, snapshot.VerifyFile)
}

package gnn

import (
	"errors"
	"fmt"
	"io"
	"os"

	"gnn/internal/mmapfile"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/shard"
	"gnn/internal/snapshot"
)

// Snapshot errors. The decoder sentinels re-export internal/snapshot's
// typed errors so callers can errors.Is them; every Open* failure wraps
// one of these (or an I/O error from the reader).
var (
	// ErrSnapshotBadMagic reports input that is not a snapshot file.
	ErrSnapshotBadMagic = snapshot.ErrBadMagic
	// ErrSnapshotVersion reports a snapshot written by an unknown format
	// version; re-snapshot from the source data to upgrade.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotChecksum reports a section whose CRC-32 check failed.
	ErrSnapshotChecksum = snapshot.ErrChecksum
	// ErrSnapshotTruncated reports a snapshot that ends prematurely.
	ErrSnapshotTruncated = snapshot.ErrTruncated
	// ErrSnapshotCorrupt reports structurally invalid snapshot contents.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrSnapshotKind reports opening a snapshot with the wrong function:
	// OpenSnapshot on a sharded file or OpenShardedSnapshot on a plain one.
	ErrSnapshotKind = errors.New("gnn: snapshot holds a different index kind")
	// ErrSnapshotClosed reports a query or write against a mapped index
	// after its Close, which unmaps the backing file unless a compaction
	// released it earlier.
	ErrSnapshotClosed = errors.New("gnn: mapped snapshot is closed")
)

// SnapshotOption customises how a snapshot is opened.
type SnapshotOption func(*snapshotConfig)

type snapshotConfig struct {
	bufferPages int
	eagerVerify bool
}

// WithSnapshotBuffer attaches an LRU buffer of that many pages to the
// loaded index's access accounting (the analogue of
// IndexConfig.BufferPages; buffer contents are runtime state and are
// never part of a snapshot). 0 — the default — disables buffering.
func WithSnapshotBuffer(pages int) SnapshotOption {
	return func(c *snapshotConfig) { c.bufferPages = pages }
}

// WithEagerVerify makes a mapped open (OpenSnapshotMapped,
// OpenShardedSnapshotMapped) run the full checksum and structural
// validation before returning, instead of deferring it to the first
// query. Eager verification reads the whole file once — paying at the
// open the read I/O the lazy default pays at the first query — in
// exchange for the v1 guarantee that a successfully opened index cannot
// later fail a query with ErrSnapshotChecksum. Either way the checksums
// read the file through the mapping's descriptor, not the mapping, so
// verification leaves only the header, section table and node sections
// resident; the columns fault in as queries touch them. The heap opens
// (OpenSnapshot and friends) always verify eagerly; the option is a
// no-op there.
func WithEagerVerify() SnapshotOption {
	return func(c *snapshotConfig) { c.eagerVerify = true }
}

// WriteSnapshot serialises the index to w in the versioned binary format
// of internal/snapshot: the packed SoA arena, page identifiers included,
// so an index loaded from the snapshot (OpenSnapshot) answers every
// query with bit-identical results, Cost and node-access counts to this
// one. Concurrent queries and writes are fine: the write serialises one
// atomically loaded view — a consistent point-in-time state. A view with
// un-compacted overlay writes is compacted transiently into the snapshot
// (the format holds exactly one packed base); the serving state is not
// changed. A NewIndex before its first read packs a copy of its buffered
// points the same way, and stays unread.
func (ix *Index) WriteSnapshot(w io.Writer) error {
	// The write reads the arena, so it holds a lifecycle reference: Close
	// cannot unmap a mapped index under it.
	r, err := ix.acquire()
	if err != nil {
		return err
	}
	defer ix.release(r)
	v := ix.view.Load()
	if v.packed == nil {
		if v, err = ix.unreadView(); err != nil {
			return err
		}
	}
	p := v.packed
	if err := p.Prepare(); err != nil {
		// A mapped index must verify its borrowed bytes before
		// re-serialising them under fresh checksums, or a corrupt mapping
		// would be laundered into a snapshot that passes its CRCs.
		return err
	}
	if v.ov != nil {
		cols, ids, err := liveColumns([]*rtree.Packed{v.packed}, v.ov)
		if err != nil {
			return err
		}
		if p, err = rtree.PackSTR(ix.rcfg, cols, ids); err != nil {
			return err
		}
	}
	_, err = p.WriteTo(w)
	return err
}

// unreadView returns a NewIndex's buffered points packed into a view
// that is never published, so the index stays unread — or the current
// view, once a first read has packed the index.
func (ix *Index) unreadView() (*viewState, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if v := ix.view.Load(); v.packed != nil {
		return v, nil
	}
	p, err := ix.slab.pack(ix.rcfg)
	if err != nil {
		return nil, err
	}
	return &viewState{tree: p.Tree(), packed: p}, nil
}

// WriteSnapshotFile is WriteSnapshot to a file created at path.
func (ix *Index) WriteSnapshotFile(path string) error {
	return writeSnapshotFile(path, ix.WriteSnapshot)
}

// OpenSnapshot loads an index from a snapshot written by WriteSnapshot.
// The snapshot is read once onto the heap, into an 8-byte aligned buffer
// whose columns the packed arena adopts in place — no re-bulk-loading
// and no second copy, so the open allocates about the snapshot's size —
// and it is verified in full before OpenSnapshot returns. The loaded
// index serves every algorithm, mutation and compaction exactly like the
// index that wrote it. Opening a sharded snapshot fails with
// ErrSnapshotKind; use OpenShardedSnapshot.
func OpenSnapshot(r io.Reader, opts ...SnapshotOption) (*Index, error) {
	data, err := mmapfile.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return openHeap(data, opts, openPlain)
}

// OpenSnapshotFile is OpenSnapshot on the file at path.
func OpenSnapshotFile(path string, opts ...SnapshotOption) (*Index, error) {
	data, err := mmapfile.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return openHeap(data, opts, openPlain)
}

// openPlain builds an Index over a decoded plain snapshot whose trees
// alias mf's mapping, or a heap buffer when mf is nil: the one open of
// every plain opener.
func openPlain(ad *snapshot.Adopted, mf *mmapfile.File, c snapshotConfig) (*Index, error) {
	if ad.Manifest.Kind != snapshot.KindPlain {
		return nil, fmt.Errorf("%w: %v (use an OpenShardedSnapshot function)", ErrSnapshotKind, ad.Manifest.Kind)
	}
	acct := pagestore.NewAccountant(c.bufferPages)
	p, err := rtree.PackedFromSnapshotBorrowed(ad.Trees[0], ad.Manifest.Dim, rtree.Config{Accountant: acct}, ad.Verify)
	if err != nil {
		return nil, err
	}
	ix := newIndexOver(p.Tree(), p, acct, p.Tree().Config())
	ix.file = mf
	if c.eagerVerify {
		if err := ix.prepare(); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// opener builds an index of type T over a decoded snapshot: openPlain or
// openSharded.
type opener[T any] func(ad *snapshot.Adopted, mf *mmapfile.File, c snapshotConfig) (T, error)

// openHeap decodes a snapshot read onto the heap and opens it with open,
// verified eagerly, with no mapping to release.
func openHeap[T any](data []byte, opts []SnapshotOption, open opener[T]) (T, error) {
	ad, err := snapshot.DecodeAdopted(data)
	if err != nil {
		var zero T
		return zero, err
	}
	c := buildSnapshotConfig(opts)
	c.eagerVerify = true
	return open(ad, nil, c)
}

// openMapped maps the snapshot file at path and opens it with open. The
// index owns the mapping from then on, unless the decoder had to copy
// it (a big-endian host), in which case it is released at once.
func openMapped[T any](path string, opts []SnapshotOption, open opener[T]) (T, error) {
	var zero T
	mf, err := mmapfile.Open(path)
	if err != nil {
		return zero, err
	}
	ad, err := snapshot.DecodeMapped(mf)
	if err != nil {
		mf.Close()
		return zero, err
	}
	if !ad.ZeroCopy {
		mf.Close()
		mf = nil
	}
	x, err := open(ad, mf, buildSnapshotConfig(opts))
	if err != nil {
		mf.Close()
		return zero, err
	}
	return x, nil
}

// WriteSnapshot serialises the sharded index to w: one arena section
// group per shard plus the sharded manifest (Hilbert-cut metadata), so
// OpenShardedSnapshot restores the index with its partition — per-shard
// point assignment, page ranges and node structure — intact. A view with
// un-compacted overlay writes is re-partitioned transiently into the
// snapshot; the serving state is not changed.
func (sx *ShardedIndex) WriteSnapshot(w io.Writer) error {
	// Same lifecycle reference and laundering guard as
	// Index.WriteSnapshot: hold the mapping open and verify a mapped
	// set's borrowed bytes before re-checksumming them.
	r, err := sx.acquire()
	if err != nil {
		return err
	}
	defer sx.release(r)
	if err := sx.prepare(); err != nil {
		return err
	}
	v := sx.view.Load()
	set := v.set
	if v.ov != nil {
		cols, ids, err := liveColumns(v.set.Arenas(), v.ov)
		if err != nil {
			return err
		}
		nset, err := shard.Build(sx.rcfg, cols, ids, sx.shards)
		if err != nil {
			return err
		}
		defer nset.Close()
		set = nset
	}
	m, trees := set.Snapshot()
	return snapshot.Write(w, m, trees)
}

// WriteSnapshotFile is WriteSnapshot to a file created at path.
func (sx *ShardedIndex) WriteSnapshotFile(path string) error {
	return writeSnapshotFile(path, sx.WriteSnapshot)
}

// OpenShardedSnapshot loads a sharded index from a snapshot written by
// ShardedIndex.WriteSnapshot, read once onto the heap and verified in
// full as OpenSnapshot does. Every shard's packed arena adopts its
// columns in place; all shards share one accountant (and, with
// WithSnapshotBuffer, one LRU buffer over their disjoint page ranges),
// so results, Cost and node-access counts are bit-identical to the
// index that wrote it. Opening a plain snapshot fails with
// ErrSnapshotKind; use OpenSnapshot.
func OpenShardedSnapshot(r io.Reader, opts ...SnapshotOption) (*ShardedIndex, error) {
	data, err := mmapfile.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return openHeap(data, opts, openSharded)
}

// OpenShardedSnapshotFile is OpenShardedSnapshot on the file at path.
func OpenShardedSnapshotFile(path string, opts ...SnapshotOption) (*ShardedIndex, error) {
	data, err := mmapfile.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return openHeap(data, opts, openSharded)
}

// openSharded builds a ShardedIndex over a decoded sharded snapshot whose
// trees alias mf's mapping, or a heap buffer when mf is nil: the one
// open of every sharded opener.
func openSharded(ad *snapshot.Adopted, mf *mmapfile.File, c snapshotConfig) (*ShardedIndex, error) {
	if ad.Manifest.Kind != snapshot.KindSharded {
		return nil, fmt.Errorf("%w: %v (use an OpenSnapshot function)", ErrSnapshotKind, ad.Manifest.Kind)
	}
	acct := pagestore.NewAccountant(c.bufferPages)
	set, err := shard.SetFromSnapshotBorrowed(ad.Manifest, ad.Trees, rtree.Config{Accountant: acct}, ad.Verify)
	if err != nil {
		return nil, err
	}
	sx := newShardedOver(set, acct, shardedRcfg(set))
	sx.file = mf
	if c.eagerVerify {
		if err := sx.prepare(); err != nil {
			return nil, err
		}
	}
	return sx, nil
}

// shardedRcfg recovers the build geometry of a snapshot-loaded shard set
// for compaction rebuilds: shard 0's tree carries the writer's
// dimensions and node capacities; the page range restarts from zero (a
// rebuild re-partitions, so the old per-shard ranges do not apply).
func shardedRcfg(set *shard.Set) rtree.Config {
	cfg := set.Shard(0).Tree.Config()
	cfg.FirstPage = 0
	return cfg
}

// OpenSnapshotMapped memory-maps the snapshot file at path and serves
// queries directly from the mapping: the arena's coordinate columns,
// child indices, entry ranges and page identifiers are adopted from the
// mapped bytes without copying, so open latency and private resident
// set stay near zero regardless of index size, and concurrent processes
// mapping the same file share its page-cache pages. Results, Cost and
// node-access counts are bit-identical to OpenSnapshot on the same
// file.
//
// Header, section-table and tree-meta validation run eagerly — a
// truncated or structurally broken file fails here with a typed error —
// while the column sections' checksums are verified lazily on the first
// query (a failure surfaces there as ErrSnapshotChecksum, never as a
// fault); WithEagerVerify moves all of it to the open. Neither allocates
// per point: queries read the coordinates from the mapping, and results
// are copies the caller owns.
//
// The mapped index serves every query a heap-loaded one does. Writes go
// to the overlay as on any packed index, and a compaction builds its new
// base on the heap while the mapping keeps serving until the swap. After
// the swap the compaction releases the mapping: the file is unmapped once
// the reads that started before the swap (queries, open iterators) have
// finished, so a compacted index keeps one resident copy of its points.
// Call Close when done to unmap the file if no compaction did; queries
// after Close fail with ErrSnapshotClosed either way. On platforms
// without mmap support the file is read onto the heap instead and served
// from there, with the same deferred verification and Close semantics.
// On a big-endian host, where the mapped columns cannot be adopted in
// place, the open copies the file once, verifies the copy and releases
// the mapping: the index then behaves like one from OpenSnapshotFile.
func OpenSnapshotMapped(path string, opts ...SnapshotOption) (*Index, error) {
	return openMapped(path, opts, openPlain)
}

// Close stops the background compactor (waiting for an in-flight cycle
// to finish or abort cleanly) and, on an index opened with
// OpenSnapshotMapped, releases the file mapping if a compaction has not
// released it already; on every other construction it only stops the
// compactor and returns nil. Close is safe under concurrent queries: it
// first marks the index closed — queries and writes arriving after that
// fail with ErrSnapshotClosed rather than touching unmapped memory, even
// when a compaction released the mapping earlier — then waits for every
// inflight query, open iterator and compaction cycle to finish before the
// file is actually unmapped. Closing twice is safe; the second call
// returns nil immediately.
func (ix *Index) Close() error {
	ix.StopCompactor()
	if ix.file == nil {
		return nil
	}
	return ix.shut(nil)
}

// OpenShardedSnapshotMapped is OpenSnapshotMapped for sharded
// snapshots: every shard's arena is adopted zero-copy from one shared
// mapping, the Hilbert partition metadata is decoded eagerly, and the
// deferred verification covers all shards at once on the first query.
// The same serving restrictions and Close semantics apply as for
// OpenSnapshotMapped.
func OpenShardedSnapshotMapped(path string, opts ...SnapshotOption) (*ShardedIndex, error) {
	return openMapped(path, opts, openSharded)
}

// Close stops the background compactor and the index's resident scatter
// workers and, when the index was opened with OpenShardedSnapshotMapped,
// releases the file mapping if a compaction has not released it already.
// The same contract as Index.Close applies: safe under concurrent
// queries — it marks the index closed (later queries fail with
// ErrSnapshotClosed on a mapped-opened index), drains the inflight ones
// and any in-flight compaction, stops the workers, then unmaps; closing
// twice is safe. On a built or heap-loaded index Close only stops the
// compactor and the workers — later queries still succeed on transient
// pooled ones.
func (sx *ShardedIndex) Close() error {
	sx.StopCompactor()
	stopWorkers := func() { sx.view.Load().set.Close() }
	if sx.file == nil {
		stopWorkers()
		return nil
	}
	return sx.shut(stopWorkers)
}

func buildSnapshotConfig(opts []SnapshotOption) snapshotConfig {
	var c snapshotConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// writeSnapshotFile writes via fn into a file created at path, surfacing
// the close error (a snapshot with a silent short write would fail its
// checksums on load, but the writer should say so). The file is not
// buffered: snapshot.Write issues one write per section column.
func writeSnapshotFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

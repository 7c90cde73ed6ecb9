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
	// ErrSnapshotKind reports OpenShardedSnapshotMapped on a plain
	// snapshot; every other open serves either kind.
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

// WithEagerVerify makes a mapped open (OpenSnapshotMapped or
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
// of internal/snapshot: the packed SoA arena, page identifiers included —
// or, on a partitioned index, one arena per shard plus the sharded
// manifest (Hilbert-cut metadata) — so an index loaded from the snapshot
// (OpenSnapshot) answers every query with bit-identical results, Cost and
// node-access counts to this one, its partition intact. Concurrent
// queries and writes are fine: the write serialises one atomically loaded
// view — a consistent point-in-time state. A view with un-compacted
// overlay writes is compacted transiently into the snapshot (the format
// holds only packed bases); the serving state is not changed. A NewIndex
// before its first read packs a copy of its buffered points the same
// way, and stays unread.
func (ix *Index) WriteSnapshot(w io.Writer) error {
	// The write reads the arena, so it holds a lifecycle reference: Close
	// cannot unmap a mapped index under it.
	r, err := ix.acquire()
	if err != nil {
		return err
	}
	defer ix.release(r)
	s := ix.view.Load()
	if s == nil {
		if s, err = ix.unreadView(); err != nil {
			return err
		}
	}
	return s.WriteSnapshot(w)
}

// unreadView returns a NewIndex's buffered points packed into a view
// that is never published, so the index stays unread — or the current
// view, once a first read has packed the index.
func (ix *Index) unreadView() (*shard.Set, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if s := ix.view.Load(); s != nil {
		return s, nil
	}
	return ix.slab.pack(ix.rcfg)
}

// WriteSnapshotFile is WriteSnapshot to a file created at path.
func (ix *Index) WriteSnapshotFile(path string) error {
	return writeSnapshotFile(path, ix.WriteSnapshot)
}

// OpenSnapshot loads an index from a snapshot of either kind written by
// WriteSnapshot: a plain snapshot opens unpartitioned, a sharded one with
// its partition — per-shard point assignment, page ranges and node
// structure — intact. The snapshot is read once onto the heap, into an
// 8-byte aligned buffer whose columns the packed arenas adopt in place —
// no re-bulk-loading and no second copy, so the open allocates about the
// snapshot's size — and it is verified in full before OpenSnapshot
// returns. All shards share one accountant (and, with
// WithSnapshotBuffer, one LRU buffer over their disjoint page ranges).
// The loaded index serves every algorithm, mutation and compaction
// exactly like the index that wrote it, with bit-identical results, Cost
// and node-access counts.
func OpenSnapshot(r io.Reader, opts ...SnapshotOption) (*Index, error) {
	data, err := mmapfile.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return openHeap(data, opts)
}

// OpenSnapshotFile is OpenSnapshot on the file at path.
func OpenSnapshotFile(path string, opts ...SnapshotOption) (*Index, error) {
	data, err := mmapfile.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return openHeap(data, opts)
}

// open builds an Index over a decoded snapshot of either kind whose trees
// alias mf's mapping, or a heap buffer when mf is nil: the one open of
// every opener. The decoded manifest decides the base's kind.
func open(ad *snapshot.Adopted, mf *mmapfile.File, c snapshotConfig) (*Index, error) {
	acct := pagestore.NewAccountant(c.bufferPages)
	set, err := shard.SetFromSnapshotBorrowed(ad.Manifest, ad.Trees, rtree.Config{Accountant: acct}, ad.Verify)
	if err != nil {
		return nil, err
	}
	ix := newIndex(set, set.Config())
	ix.file = mf
	if c.eagerVerify {
		if err := ix.prepare(); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// openHeap decodes a snapshot read onto the heap and opens it, verified
// eagerly, with no mapping to release.
func openHeap(data []byte, opts []SnapshotOption) (*Index, error) {
	ad, err := snapshot.DecodeAdopted(data)
	if err != nil {
		return nil, err
	}
	c := buildSnapshotConfig(opts)
	c.eagerVerify = true
	return open(ad, nil, c)
}

// openMapped maps the snapshot file at path and opens it; with sharded
// set, a plain snapshot fails with ErrSnapshotKind. The index owns the
// mapping from then on, unless the decoder had to copy it (a big-endian
// host), in which case it is released at once.
func openMapped(path string, opts []SnapshotOption, sharded bool) (*Index, error) {
	mf, err := mmapfile.Open(path)
	if err != nil {
		return nil, err
	}
	ad, err := snapshot.DecodeMapped(mf)
	if err != nil {
		mf.Close()
		return nil, err
	}
	if sharded && ad.Manifest.Kind != snapshot.KindSharded {
		mf.Close()
		return nil, fmt.Errorf("%w: %v (OpenShardedSnapshotMapped opens sharded snapshots)", ErrSnapshotKind, ad.Manifest.Kind)
	}
	if !ad.ZeroCopy {
		mf.Close()
		mf = nil
	}
	ix, err := open(ad, mf, buildSnapshotConfig(opts))
	if err != nil {
		mf.Close()
		return nil, err
	}
	return ix, nil
}

// OpenSnapshotMapped memory-maps the snapshot file at path, of either
// kind, and serves queries directly from the mapping: the arenas'
// coordinate columns, child indices, entry ranges and page identifiers
// are adopted from the mapped bytes without copying, so open latency and
// private resident set stay near zero regardless of index size, and
// concurrent processes mapping the same file share its page-cache pages.
// A sharded snapshot's Hilbert partition metadata is decoded eagerly, and
// the deferred verification covers all shards at once. Results, Cost and
// node-access counts are bit-identical to OpenSnapshot on the same file.
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
	return openMapped(path, opts, false)
}

// OpenShardedSnapshotMapped is OpenSnapshotMapped restricted to sharded
// snapshots: a plain one fails with ErrSnapshotKind.
func OpenShardedSnapshotMapped(path string, opts ...SnapshotOption) (*Index, error) {
	return openMapped(path, opts, true)
}

// Close stops the background compactor (waiting for an in-flight cycle
// to finish or abort cleanly) and, on an index opened with
// OpenSnapshotMapped or OpenShardedSnapshotMapped, releases the file
// mapping if a compaction has not released it already. Those are the only
// resources an index holds beyond memory — a query's scatter workers end
// with the query — so Close matters only for a mapped or compacting
// index. Close is safe under concurrent queries: on a mapped index it
// first marks the index closed — queries and writes arriving after that
// fail with ErrSnapshotClosed rather than touching unmapped memory, even
// when a compaction released the mapping earlier — then waits for every
// inflight query, open iterator and compaction cycle to finish before the
// file is actually unmapped. On every other construction later queries
// still succeed. Closing twice is safe; the second call returns nil
// immediately.
func (ix *Index) Close() error {
	ix.StopCompactor()
	if ix.file == nil {
		return nil
	}
	return ix.shut()
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

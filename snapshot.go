package gnn

import (
	"bytes"
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
	// ErrSnapshotClosed reports a query against a mapped index whose
	// Close has already unmapped the backing file.
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
// query. Eager verification touches every mapped page — paying the read
// I/O the lazy default avoids — in exchange for the v1 guarantee that a
// successfully opened index cannot later fail a query with
// ErrSnapshotChecksum. The copying opens (OpenSnapshot and friends)
// always verify eagerly; the option is a no-op there.
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
// changed. A NewIndex before its first read is packed transiently the
// same way, and stays an unfrozen builder.
func (ix *Index) WriteSnapshot(w io.Writer) error {
	// The write reads the arena, so it holds a lifecycle reference: Close
	// cannot unmap a mapped index under it.
	if err := ix.acquire(); err != nil {
		return err
	}
	defer ix.release()
	v := ix.view.Load()
	p := v.packed
	if p == nil {
		p = v.tree.Pack()
	} else if err := p.Prepare(); err != nil {
		// A mapped index must verify its borrowed bytes before
		// re-serialising them under fresh checksums, or a corrupt mapping
		// would be laundered into a snapshot that passes its CRCs.
		return err
	}
	if v.ov != nil {
		coords, ids := gatherLive(v.packed, v.ov)
		var err error
		if p, err = rtree.PackSTR(ix.rcfg, coords, ids); err != nil {
			return err
		}
	}
	_, err := p.WriteTo(w)
	return err
}

// WriteSnapshotFile is WriteSnapshot to a file created at path.
func (ix *Index) WriteSnapshotFile(path string) error {
	return writeSnapshotFile(path, ix.WriteSnapshot)
}

// OpenSnapshot loads an index from a snapshot written by WriteSnapshot.
// The packed arena is adopted directly — no re-bulk-loading — so the
// loaded index serves every algorithm, mutation and compaction exactly
// like the index that wrote it.
// Opening a sharded snapshot fails with ErrSnapshotKind; use
// OpenShardedSnapshot.
func OpenSnapshot(r io.Reader, opts ...SnapshotOption) (*Index, error) {
	data, err := readAllSized(r)
	if err != nil {
		return nil, err
	}
	return openSnapshotBytes(data, opts)
}

// OpenSnapshotFile is OpenSnapshot on the file at path.
func OpenSnapshotFile(path string, opts ...SnapshotOption) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return openSnapshotBytes(data, opts)
}

func openSnapshotBytes(data []byte, opts []SnapshotOption) (*Index, error) {
	c := buildSnapshotConfig(opts)
	m, trees, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	if m.Kind != snapshot.KindPlain {
		return nil, fmt.Errorf("%w: %v (use OpenShardedSnapshot)", ErrSnapshotKind, m.Kind)
	}
	acct := pagestore.NewAccountant(c.bufferPages)
	p, err := rtree.PackedFromSnapshot(trees[0], m.Dim, rtree.Config{Accountant: acct})
	if err != nil {
		return nil, err
	}
	return newIndexOver(p.Tree(), p, acct, p.Tree().Config()), nil
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
	if err := sx.acquire(); err != nil {
		return err
	}
	defer sx.release()
	if err := sx.prepare(); err != nil {
		return err
	}
	v := sx.view.Load()
	set := v.set
	if v.ov != nil {
		coords, ids := gatherLive(v.set, v.ov)
		nset, err := shard.Build(sx.rcfg, coords, ids, sx.shards)
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
// ShardedIndex.WriteSnapshot. Every shard's packed arena is adopted
// directly; all shards share one accountant (and, with
// WithSnapshotBuffer, one LRU buffer over their disjoint page ranges),
// so results, Cost and node-access counts are bit-identical to the
// index that wrote it. Opening a plain snapshot fails with
// ErrSnapshotKind; use OpenSnapshot.
func OpenShardedSnapshot(r io.Reader, opts ...SnapshotOption) (*ShardedIndex, error) {
	data, err := readAllSized(r)
	if err != nil {
		return nil, err
	}
	return openShardedSnapshotBytes(data, opts)
}

// OpenShardedSnapshotFile is OpenShardedSnapshot on the file at path.
func OpenShardedSnapshotFile(path string, opts ...SnapshotOption) (*ShardedIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return openShardedSnapshotBytes(data, opts)
}

func openShardedSnapshotBytes(data []byte, opts []SnapshotOption) (*ShardedIndex, error) {
	c := buildSnapshotConfig(opts)
	m, trees, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	if m.Kind != snapshot.KindSharded {
		return nil, fmt.Errorf("%w: %v (use OpenSnapshot)", ErrSnapshotKind, m.Kind)
	}
	acct := pagestore.NewAccountant(c.bufferPages)
	set, err := shard.SetFromSnapshot(m, trees, rtree.Config{Accountant: acct})
	if err != nil {
		return nil, err
	}
	return newShardedOver(set, acct, shardedRcfg(set)), nil
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
// Header and section-table validation run eagerly — a truncated or
// structurally broken file fails here with a typed error — while the
// per-section checksums are verified lazily on the first query (a
// failure surfaces there as ErrSnapshotChecksum, never as a fault);
// WithEagerVerify moves all of it to the open. Neither allocates per
// point: queries read the coordinates from the mapping, and results are
// copies the caller owns.
//
// The mapped index serves every query a heap-loaded one does. Writes go
// to the overlay as on any packed index, and a compaction builds its new
// base on the heap while the mapping keeps serving until the swap. Call
// Close when done to unmap the file; queries after Close fail with
// ErrSnapshotClosed. On platforms
// without mmap support (or when the mapping cannot be adopted in place)
// the function transparently degrades to a read-and-copy open that
// behaves exactly like OpenSnapshotFile.
func OpenSnapshotMapped(path string, opts ...SnapshotOption) (*Index, error) {
	c := buildSnapshotConfig(opts)
	mf, err := mmapfile.Open(path)
	if err != nil {
		return nil, err
	}
	ix, err := openMappedPlain(mf, c)
	if err != nil {
		mf.Close()
		return nil, err
	}
	return ix, nil
}

func openMappedPlain(mf *mmapfile.File, c snapshotConfig) (*Index, error) {
	ad, err := snapshot.DecodeAdopted(mf.Data())
	if err != nil {
		return nil, err
	}
	if ad.Manifest.Kind != snapshot.KindPlain {
		return nil, fmt.Errorf("%w: %v (use OpenShardedSnapshotMapped)", ErrSnapshotKind, ad.Manifest.Kind)
	}
	acct := pagestore.NewAccountant(c.bufferPages)
	if !ad.ZeroCopy {
		// Adoption fell back to a fully verified copying decode (non-mmap
		// platform, big-endian host or misaligned buffer); the mapping is
		// no longer needed.
		p, err := rtree.PackedFromSnapshot(ad.Trees[0], ad.Manifest.Dim, rtree.Config{Accountant: acct})
		if err != nil {
			return nil, err
		}
		mf.Close()
		return newIndexOver(p.Tree(), p, acct, p.Tree().Config()), nil
	}
	p, err := rtree.PackedFromSnapshotBorrowed(ad.Trees[0], ad.Manifest.Dim, rtree.Config{Accountant: acct}, ad.Verify)
	if err != nil {
		return nil, err
	}
	ix := newIndexOver(p.Tree(), p, acct, p.Tree().Config())
	ix.mapped = mf
	if c.eagerVerify {
		if err := ix.prepare(); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Close stops the background compactor (waiting for an in-flight cycle
// to finish or abort cleanly) and releases the file mapping of an index
// opened with OpenSnapshotMapped; on every other construction it only
// stops the compactor and returns nil. Close is safe under concurrent
// queries: it first marks the index closed — queries and writes arriving
// after that fail with ErrSnapshotClosed rather than touching unmapped
// memory — then waits for every inflight query, open iterator and
// compaction cycle to finish before the file is actually unmapped.
// Closing twice is safe; the second call returns nil immediately.
func (ix *Index) Close() error {
	ix.StopCompactor()
	if ix.mapped == nil {
		return nil
	}
	if ix.closed.Swap(true) {
		return nil // another Close won the race and owns the drain
	}
	drainRefs(&ix.refs)
	m := ix.mapped
	ix.mapped = nil
	return m.Close()
}

// OpenShardedSnapshotMapped is OpenSnapshotMapped for sharded
// snapshots: every shard's arena is adopted zero-copy from one shared
// mapping, the Hilbert partition metadata is decoded eagerly, and the
// deferred verification covers all shards at once on the first query.
// The same serving restrictions and Close semantics apply as for
// OpenSnapshotMapped.
func OpenShardedSnapshotMapped(path string, opts ...SnapshotOption) (*ShardedIndex, error) {
	c := buildSnapshotConfig(opts)
	mf, err := mmapfile.Open(path)
	if err != nil {
		return nil, err
	}
	sx, err := openMappedSharded(mf, c)
	if err != nil {
		mf.Close()
		return nil, err
	}
	return sx, nil
}

func openMappedSharded(mf *mmapfile.File, c snapshotConfig) (*ShardedIndex, error) {
	ad, err := snapshot.DecodeAdopted(mf.Data())
	if err != nil {
		return nil, err
	}
	if ad.Manifest.Kind != snapshot.KindSharded {
		return nil, fmt.Errorf("%w: %v (use OpenSnapshotMapped)", ErrSnapshotKind, ad.Manifest.Kind)
	}
	acct := pagestore.NewAccountant(c.bufferPages)
	if !ad.ZeroCopy {
		set, err := shard.SetFromSnapshot(ad.Manifest, ad.Trees, rtree.Config{Accountant: acct})
		if err != nil {
			return nil, err
		}
		mf.Close()
		return newShardedOver(set, acct, shardedRcfg(set)), nil
	}
	set, err := shard.SetFromSnapshotBorrowed(ad.Manifest, ad.Trees, rtree.Config{Accountant: acct}, ad.Verify)
	if err != nil {
		return nil, err
	}
	sx := newShardedOver(set, acct, shardedRcfg(set))
	sx.mapped = mf
	if c.eagerVerify {
		if err := sx.prepare(); err != nil {
			return nil, err
		}
	}
	return sx, nil
}

// Close stops the background compactor and the index's resident scatter
// workers and, when the index was opened with OpenShardedSnapshotMapped,
// releases the file mapping. The same contract as Index.Close applies:
// safe under concurrent queries — it marks the index closed (later
// queries fail with ErrSnapshotClosed on a mapped index), drains the
// inflight ones and any in-flight compaction, stops the workers, then
// unmaps; closing twice is safe. On a built or copy-loaded index Close
// only stops the compactor and the workers — later queries still succeed
// on transient pooled ones.
func (sx *ShardedIndex) Close() error {
	sx.StopCompactor()
	if sx.mapped == nil {
		sx.view.Load().set.Close()
		return nil
	}
	if sx.closed.Swap(true) {
		return nil // another Close won the race and owns the drain
	}
	drainRefs(&sx.refs)
	sx.view.Load().set.Close()
	m := sx.mapped
	sx.mapped = nil
	return m.Close()
}

func buildSnapshotConfig(opts []SnapshotOption) snapshotConfig {
	var c snapshotConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// readAllSized reads r to EOF like io.ReadAll but, when r is a regular
// file, stats it first and allocates the full buffer up front — one
// allocation instead of the doubling growth of io.ReadAll, which both
// over-allocates (~2x the file size transiently) and copies the data
// log(n) times on multi-hundred-megabyte snapshots.
func readAllSized(r io.Reader) ([]byte, error) {
	f, ok := r.(*os.File)
	if !ok {
		return io.ReadAll(r)
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return io.ReadAll(r)
	}
	size := fi.Size()
	if size <= 0 || int64(int(size)) != size {
		return io.ReadAll(r)
	}
	// One spare byte so the final read returns (0, io.EOF) without
	// triggering a growth step when the size was exact.
	buf := bytes.NewBuffer(make([]byte, 0, int(size)+1))
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeSnapshotFile writes via fn into a file created at path, surfacing
// the close error (a snapshot with a silent short write would fail its
// checksums on load, but the writer should say so). The file is not
// buffered: snapshot.Write issues one write per whole section.
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

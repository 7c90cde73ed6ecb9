package rtree

import (
	"fmt"
	"io"
	"math"
	"unsafe"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/snapshot"
)

// Snapshot returns the serialisable arena of the packed tree. The
// returned Tree borrows the arena's slices without copying any (the page
// array is reinterpreted: pagestore.PageID is int64 under another name),
// so it is cheap and must be treated as read-only, valid while p is.
func (p *Packed) Snapshot() *snapshot.Tree {
	var pages []int64
	if len(p.page) > 0 {
		pages = unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(p.page))), len(p.page))
	}
	t := p.src
	return &snapshot.Tree{
		Size:       p.size,
		Height:     p.height,
		MaxEntries: t.cfg.MaxEntries,
		MinEntries: t.cfg.MinEntries,
		FirstPage:  int64(t.cfg.FirstPage),
		Pages:      t.Pages(),
		Root:       p.root,
		Level:      p.level,
		Page:       pages,
		Start:      p.start,
		End:        p.end,
		Child:      p.child,
		RectLo:     p.rlo,
		RectHi:     p.rhi,
		PointCols:  p.pc,
		IDs:        p.ids,
	}
}

// ArenaBytes returns the size of the packed arena's flat arrays (node
// metadata, routing rectangles, coordinate columns, ids): exactly the
// column payload a snapshot serialises, and the arena's whole footprint
// (the columns are its only copy of the points).
func (p *Packed) ArenaBytes() int64 {
	nodes := int64(len(p.level))
	rslots := int64(len(p.child))
	lslots := int64(len(p.ids))
	d := int64(p.dim)
	return nodes*(4+8+4+4) + // level, page, start, end
		rslots*4 + 2*d*rslots*8 + // child, rlo, rhi
		d*lslots*8 + lslots*8 // pc, ids
}

// countingWriter tracks bytes written for io.WriterTo bookkeeping.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serialises the packed arena as a single-tree (plain) snapshot
// in the format of internal/snapshot, implementing io.WriterTo. Sharded
// snapshots are assembled one layer up (internal/shard) from the same
// per-tree sections.
func (p *Packed) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	m := snapshot.Manifest{Kind: snapshot.KindPlain, Dim: p.dim, Points: p.size}
	err := snapshot.Write(cw, m, []*snapshot.Tree{p.Snapshot()})
	return cw.n, err
}

// ReadFrom loads a single-tree snapshot into p, implementing
// io.ReaderFrom: the receiver (typically zero) is overwritten with the
// deserialised arena, and p.Tree() returns its shell. The loaded arena
// answers every query with bit-identical results, costs and node-access
// counts to the arena that wrote the snapshot. A fresh unbuffered Accountant is attached; load through the
// public layer (gnn.OpenSnapshot) to configure buffering.
func (p *Packed) ReadFrom(r io.Reader) (int64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return int64(len(data)), err
	}
	m, trees, err := snapshot.Decode(data)
	if err != nil {
		return int64(len(data)), err
	}
	if m.Kind != snapshot.KindPlain {
		return int64(len(data)), fmt.Errorf("rtree: snapshot kind %v, want %v", m.Kind, snapshot.KindPlain)
	}
	loaded, err := PackedFromSnapshot(trees[0], m.Dim, Config{})
	if err != nil {
		return int64(len(data)), err
	}
	*p = *loaded
	p.src.arena = p
	return int64(len(data)), nil
}

// PackedFromSnapshot reconstructs a packed arena, with its shell, from a
// decoded snapshot tree. The arena arrays are adopted directly from st
// (zero rebuild). cfg supplies runtime wiring only (the Accountant); the
// structural parameters (dimension, node capacity, page range) come from
// the snapshot.
//
// Page identifiers are preserved node for node and the entry order
// inside every node is the writer's, so traversals on the loaded arena
// charge the same accesses in the same order: results, Cost and NA are
// bit-identical to the writer's.
func PackedFromSnapshot(st *snapshot.Tree, dim int, cfg Config) (*Packed, error) {
	cfg.Dim = dim
	cfg.MaxEntries = st.MaxEntries
	cfg.MinEntries = st.MinEntries
	cfg.FirstPage = pagestore.PageID(st.FirstPage)
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("rtree: snapshot config: %w", err)
	}

	pages := make([]pagestore.PageID, len(st.Level))
	maxPage := cfg.FirstPage + pagestore.PageID(st.Pages) - 1
	for i, pg := range st.Page {
		pages[i] = pagestore.PageID(pg)
		if pages[i] > maxPage {
			maxPage = pages[i]
		}
	}

	p := &Packed{
		dim: dim, size: st.Size, height: st.Height,
		acct:  cfg.Accountant,
		root:  st.Root,
		level: st.Level,
		page:  pages,
		start: st.Start,
		end:   st.End,
		child: st.Child,
		rlo:   st.RectLo,
		rhi:   st.RectHi,
		pc:    st.PointCols,
		ids:   st.IDs,
	}
	p.setShell(cfg, maxPage+1)
	return p, nil
}

// PackedFromSnapshotBorrowed is the zero-copy sibling of
// PackedFromSnapshot: the arena arrays alias st's slices (which for a
// mapped open alias the file mapping itself) and the expensive open work
// is deferred.
//
// verify runs the caller's deferred validation of st's backing bytes
// (checksums and structural checks, e.g. snapshot.Adopted.Verify); it is
// invoked exactly once, from Packed.Prepare, before the first traversal.
// After verify succeeds, Prepare computes the root MBR and nothing else:
// the arena keeps no copy of the points, so every traversal reads the
// coordinates straight from the backing buffer's columns, and emitted
// results are copies the caller owns.
//
// The caller owns the backing buffer's lifetime: it must stay alive and
// unmodified until the returned arena is unreachable or closed one
// layer up.
func PackedFromSnapshotBorrowed(st *snapshot.Tree, dim int, cfg Config, verify func() error) (*Packed, error) {
	cfg.Dim = dim
	cfg.MaxEntries = st.MaxEntries
	cfg.MinEntries = st.MinEntries
	cfg.FirstPage = pagestore.PageID(st.FirstPage)
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("rtree: snapshot config: %w", err)
	}

	// pagestore.PageID is int64 under a different name, so the page
	// column is adopted in place rather than copied like
	// PackedFromSnapshot does. nextPage comes from the writer-declared
	// page range — verify confirms every node page lies inside it.
	var pages []pagestore.PageID
	if len(st.Page) > 0 {
		pages = unsafe.Slice((*pagestore.PageID)(unsafe.Pointer(unsafe.SliceData(st.Page))), len(st.Page))
	}

	p := &Packed{
		dim: dim, size: st.Size, height: st.Height,
		acct:  cfg.Accountant,
		root:  st.Root,
		level: st.Level,
		page:  pages,
		start: st.Start,
		end:   st.End,
		child: st.Child,
		rlo:   st.RectLo,
		rhi:   st.RectHi,
		pc:    st.PointCols,
		ids:   st.IDs,
	}
	p.prep = &packedPrep{fn: func() error {
		if err := verify(); err != nil {
			return err
		}
		p.mbr = p.rootMBR()
		return nil
	}}
	p.setShell(cfg, cfg.FirstPage+pagestore.PageID(st.Pages))
	return p, nil
}

// rootMBR computes the arena root's bounding rectangle (the validated
// arena makes every slot range in bounds).
func (p *Packed) rootMBR() geom.Rect {
	lo := make(geom.Point, p.dim)
	hi := make(geom.Point, p.dim)
	if p.start[p.root] < p.end[p.root] {
		for a := 0; a < p.dim; a++ {
			lo[a], hi[a] = p.nodeSpan(p.root, a)
		}
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// nodeSpan returns the extent on axis a of non-empty node n's entries:
// the math.Min/math.Max fold of their corners in entry order, the values
// a Rect.Union chain over the entries yields.
func (p *Packed) nodeSpan(n int32, a int) (lo, hi float64) {
	los, his := p.rlo[a], p.rhi[a]
	if p.level[n] == 0 {
		los, his = p.pc[a], p.pc[a]
	}
	s, e := p.start[n], p.end[n]
	lo, hi = los[s], his[s]
	for i := s + 1; i < e; i++ {
		lo = math.Min(lo, los[i])
		hi = math.Max(hi, his[i])
	}
	return lo, hi
}

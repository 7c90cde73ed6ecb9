package rtree

import (
	"fmt"
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

// PackedFromSnapshot reconstructs a packed arena, with its shell, from a
// verified snapshot tree: PackedFromSnapshotBorrowed with nothing left to
// verify, so the arena is complete at construction.
func PackedFromSnapshot(st *snapshot.Tree, dim int, cfg Config) (*Packed, error) {
	return PackedFromSnapshotBorrowed(st, dim, cfg, nil)
}

// PackedFromSnapshotBorrowed reconstructs a packed arena, with its
// shell, from a decoded snapshot tree. The arena arrays alias st's slices
// (which alias the snapshot's buffer, the file mapping itself for a
// mapped open): nothing is rebuilt or copied. cfg supplies runtime wiring
// only (the Accountant); the structural parameters (dimension, node
// capacity, page range) come from the snapshot.
//
// Page identifiers are preserved node for node and the entry order
// inside every node is the writer's, so traversals on the loaded arena
// charge the same accesses in the same order: results, Cost and NA are
// bit-identical to the writer's.
//
// verify, when non-nil, runs the caller's deferred validation of st's
// backing bytes (checksums and structural checks, e.g.
// snapshot.Adopted.Verify); it is invoked exactly once, from
// Packed.Prepare, before the first traversal. After verify succeeds,
// Prepare computes the root MBR and nothing else: the arena keeps no
// copy of the points, so every traversal reads the coordinates straight
// from the backing buffer's columns, and emitted results are copies the
// caller owns. With a nil verify st must already be verified, and the
// root MBR is computed here.
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
	// column is adopted in place. nextPage comes from the writer-declared
	// page range — verification confirms every node page lies inside it.
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
	if verify != nil {
		p.prep = &packedPrep{fn: func() error {
			if err := verify(); err != nil {
				return err
			}
			p.mbr = p.rootMBR()
			return nil
		}}
	}
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
// the least of their low corners and the greatest of their high ones.
// The builtin min and max order -0 below +0, so for NaN-free corners
// these are the values a math.Min/math.Max fold, and so a Rect.Union
// chain over the entries, yields. On NaN-free values both are
// associative and commutative, so the fold runs as two interleaved
// chains, which halves its dependent steps without changing a value.
func (p *Packed) nodeSpan(n int32, a int) (lo, hi float64) {
	los, his := p.rlo[a], p.rhi[a]
	if p.level[n] == 0 {
		los, his = p.pc[a], p.pc[a]
	}
	los = los[p.start[n]:p.end[n]]
	his = his[p.start[n]:p.end[n]][:len(los)]
	lo, hi = los[0], his[0]
	lo1, hi1 := lo, hi
	i := 1
	for ; i+1 < len(los); i += 2 {
		lo, hi = min(lo, los[i]), max(hi, his[i])
		lo1, hi1 = min(lo1, los[i+1]), max(hi1, his[i+1])
	}
	if i < len(los) {
		lo, hi = min(lo, los[i]), max(hi, his[i])
	}
	return min(lo, lo1), max(hi, hi1)
}

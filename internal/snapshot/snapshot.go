// Package snapshot defines the on-disk format for persistent index
// snapshots: a versioned binary serialisation of one or more packed SoA
// R-tree arenas (see internal/rtree.Packed) plus the manifest that ties
// them into a plain or Hilbert-sharded index. A snapshot captures the
// arena verbatim — per-axis coordinate columns, int32 child indices,
// entry ranges, page identifiers — so a loaded index serves queries with
// bit-identical results, costs and node-access counts to the index that
// wrote it, without re-bulk-loading anything.
//
// # Format (version 2)
//
// All integers are little-endian; floats are IEEE 754 bit patterns.
//
//	offset  size  field
//	     0     8  magic "GNNSNAP\x00"
//	     8     4  format version (uint32, currently 2)
//	    12     4  index kind (uint32: 0 plain, 1 sharded)
//	    16     4  dimensionality (uint32, >= 1)
//	    20     4  tree count (uint32: 1 for plain, S for sharded)
//	    24     8  total point count (uint64)
//	    32     4  section count (uint32)
//	    36     4  reserved (0)
//	    40     …  section table: 28 bytes per section
//	     …     …  section payloads, in table order, each padded to start
//	              on a 64-byte boundary (pad bytes are zero)
//
// Each section-table entry is {kind uint32, tree uint32, offset uint64,
// length uint64, crc uint32}: offset/length locate the payload from the
// start of the file and crc is the IEEE CRC-32 of the payload bytes, so
// every section is independently integrity-checked. Every tree
// contributes nine sections (meta, node levels, node pages, node slot
// ranges, child indices, per-axis rect-lo/rect-hi columns, per-axis
// point columns, ids); a sharded snapshot adds one manifest-extension
// section carrying the Hilbert-cut provenance (curve order, partition
// bounding box, per-shard cut sizes).
//
// The 64-byte section alignment (new in version 2, along with the slot
// ranges section storing all start slots followed by all end slots
// instead of interleaved pairs) exists so a decoder may adopt the
// numeric columns directly from an mmap'd file: every []int32, []int64
// and []float64 payload sits cache-line aligned, and a page-aligned
// mapping makes the in-file arrays valid Go slices without a copy. See
// DecodeAdopted.
//
// # Version and compatibility policy
//
// The version is bumped on ANY change to the byte layout, section set or
// semantics — there are no minor versions and no in-place migrations.
// Decoders accept exactly the versions they know (currently: 2) and
// return ErrVersion otherwise; re-snapshot from the source data to
// upgrade. The checked-in golden fixture (testdata/golden_v2.snap at the
// repository root) locks version 2: a format change that forgets to bump
// the version fails its compatibility test.
//
// The decoder is strictly validating: it returns typed errors
// (ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated, ErrCorrupt) and
// never panics on corrupt input, and it allocates only what the actual
// input length supports, so a forged header cannot trigger huge
// allocations.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Magic identifies a snapshot file. The trailing NUL keeps it exactly 8
// bytes and distinguishable from text formats.
const Magic = "GNNSNAP\x00"

// Version is the current format version. See the package comment for the
// compatibility policy.
const Version = 2

// Typed decode errors. Wrapped errors add context; match with errors.Is.
var (
	// ErrBadMagic reports input that is not a snapshot file at all.
	ErrBadMagic = errors.New("snapshot: bad magic (not a snapshot file)")
	// ErrVersion reports a snapshot written by an unknown format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum reports a section whose CRC-32 does not match its payload.
	ErrChecksum = errors.New("snapshot: section checksum mismatch")
	// ErrTruncated reports input that ends before its declared contents.
	ErrTruncated = errors.New("snapshot: truncated input")
	// ErrCorrupt reports structurally invalid contents (bad counts, ranges,
	// child indices, section layout) in an otherwise well-framed file.
	ErrCorrupt = errors.New("snapshot: corrupt contents")
)

// Kind is the index kind a snapshot serialises.
type Kind uint32

const (
	// KindPlain is a single-tree index (gnn.Index).
	KindPlain Kind = 0
	// KindSharded is a Hilbert-partitioned index (gnn.ShardedIndex): one
	// tree section group per shard plus the manifest extension.
	KindSharded Kind = 1
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPlain:
		return "plain"
	case KindSharded:
		return "sharded"
	default:
		return fmt.Sprintf("Kind(%d)", uint32(k))
	}
}

// Section kinds.
const (
	secHilbert  = 1  // manifest extension: Hilbert-cut metadata (sharded)
	secTreeMeta = 2  // fixed-size per-tree counters
	secLevels   = 3  // []int32, per node
	secPages    = 4  // []int64 page IDs, per node
	secRanges   = 5  // []int32, start column then end column, 2 per node
	secChildren = 6  // []int32, per routing slot
	secRectLo   = 7  // []float64, axis-major, dim × routing slots
	secRectHi   = 8  // []float64, axis-major, dim × routing slots
	secPoints   = 9  // []float64, axis-major, dim × leaf slots
	secIDs      = 10 // []int64, per leaf slot
)

// headerSize and tableEntrySize are the fixed framing sizes;
// sectionAlign is the byte alignment of every section payload.
const (
	headerSize     = 40
	tableEntrySize = 28
	treeMetaSize   = 56
	sectionAlign   = 64
)

// alignUp rounds n up to the next multiple of sectionAlign.
func alignUp(n uint64) uint64 {
	return (n + sectionAlign - 1) &^ uint64(sectionAlign-1)
}

// MaxDim bounds the dimensionality a snapshot may declare. It is far
// beyond any real spatial workload; its purpose is to keep every
// length-of-section computation in the decoder comfortably inside int64,
// so a forged header cannot overflow a validation check into a panic.
const MaxDim = 1 << 16

// treeSectionKinds is the per-tree section set, in the order the writer
// emits it. The decoder requires each kind exactly once per tree.
var treeSectionKinds = []uint32{
	secTreeMeta, secLevels, secPages, secRanges, secChildren,
	secRectLo, secRectHi, secPoints, secIDs,
}

// Hilbert records how a sharded snapshot's partition was cut: provenance
// for operators and a consistency check for the loader, not an input to
// reconstruction (the per-shard point assignment is already baked into
// the tree sections).
type Hilbert struct {
	// Order is the Hilbert curve order used for the partition sort.
	Order uint32
	// Lo and Hi are the partition bounding box on the first two axes.
	Lo, Hi [2]float64
	// CutSizes are the per-shard point counts, in shard order.
	CutSizes []int64
}

// Manifest describes the snapshot as a whole.
type Manifest struct {
	Kind   Kind
	Dim    int
	Points int
	// Hilbert is the cut metadata of a sharded snapshot, nil for plain.
	Hilbert *Hilbert
}

// Tree is the serialisable arena of one packed R-tree: a flat
// structure-of-arrays mirror of rtree.Packed plus the construction
// parameters of the tree it describes (node capacity, page range). Node
// ids are depth-first preorder; node i owns slot range [Start[i], End[i])
// of the routing space (internal nodes) or the leaf space (leaves).
type Tree struct {
	Size       int
	Height     int
	MaxEntries int
	MinEntries int
	FirstPage  int64
	Pages      int64
	Root       int32

	// Per-node arrays.
	Level []int32
	Page  []int64
	Start []int32
	End   []int32

	// Routing-slot arrays; RectLo/RectHi are [axis][slot].
	Child          []int32
	RectLo, RectHi [][]float64

	// Leaf-slot arrays; PointCols is [axis][slot].
	PointCols [][]float64
	IDs       []int64
}

// section is one table entry during encode/decode.
type section struct {
	kind   uint32
	tree   uint32
	offset uint64
	length uint64
	crc    uint32
}

// noTree is the table entry's tree field for manifest-level sections.
const noTree = ^uint32(0)

// ---------------------------------------------------------------------------
// Encoding

// appendU32/appendU64/appendF64 are the little-endian append helpers.
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// sectionLength returns the payload length of section kind for tree t
// under manifest m (t may be nil for manifest-level sections).
func sectionLength(kind uint32, m Manifest, trees []*Tree, t *Tree) uint64 {
	switch kind {
	case secHilbert:
		return 8 + 32 + 8*uint64(len(trees))
	case secTreeMeta:
		return treeMetaSize
	case secLevels:
		return 4 * uint64(len(t.Level))
	case secPages:
		return 8 * uint64(len(t.Page))
	case secRanges:
		return 8 * uint64(len(t.Start))
	case secChildren:
		return 4 * uint64(len(t.Child))
	case secRectLo, secRectHi:
		return 8 * uint64(m.Dim) * uint64(len(t.Child))
	case secPoints:
		return 8 * uint64(m.Dim) * uint64(len(t.IDs))
	case secIDs:
		return 8 * uint64(len(t.IDs))
	}
	panic("snapshot: unknown section kind") // writer-internal; unreachable
}

// encodeSection appends section kind's payload to buf and returns it.
func encodeSection(buf []byte, kind uint32, m Manifest, trees []*Tree, t *Tree) []byte {
	switch kind {
	case secHilbert:
		h := m.Hilbert
		buf = appendU32(buf, h.Order)
		buf = appendU32(buf, 0)
		buf = appendF64(buf, h.Lo[0])
		buf = appendF64(buf, h.Lo[1])
		buf = appendF64(buf, h.Hi[0])
		buf = appendF64(buf, h.Hi[1])
		for _, c := range h.CutSizes {
			buf = appendU64(buf, uint64(c))
		}
	case secTreeMeta:
		buf = appendU64(buf, uint64(t.Size))
		buf = appendU32(buf, uint32(t.Height))
		buf = appendU32(buf, uint32(t.MaxEntries))
		buf = appendU32(buf, uint32(t.MinEntries))
		buf = appendU32(buf, uint32(t.Root))
		buf = appendU32(buf, uint32(len(t.Level)))
		buf = appendU32(buf, uint32(len(t.Child)))
		buf = appendU32(buf, uint32(len(t.IDs)))
		buf = appendU32(buf, 0)
		buf = appendU64(buf, uint64(t.FirstPage))
		buf = appendU64(buf, uint64(t.Pages))
	case secLevels:
		for _, v := range t.Level {
			buf = appendU32(buf, uint32(v))
		}
	case secPages:
		for _, v := range t.Page {
			buf = appendU64(buf, uint64(v))
		}
	case secRanges:
		// Start column then end column (not interleaved pairs), so a
		// zero-copy decoder can adopt both as whole slices.
		for _, v := range t.Start {
			buf = appendU32(buf, uint32(v))
		}
		for _, v := range t.End {
			buf = appendU32(buf, uint32(v))
		}
	case secChildren:
		for _, v := range t.Child {
			buf = appendU32(buf, uint32(v))
		}
	case secRectLo:
		for a := 0; a < m.Dim; a++ {
			for _, v := range t.RectLo[a] {
				buf = appendF64(buf, v)
			}
		}
	case secRectHi:
		for a := 0; a < m.Dim; a++ {
			for _, v := range t.RectHi[a] {
				buf = appendF64(buf, v)
			}
		}
	case secPoints:
		for a := 0; a < m.Dim; a++ {
			for _, v := range t.PointCols[a] {
				buf = appendF64(buf, v)
			}
		}
	case secIDs:
		for _, v := range t.IDs {
			buf = appendU64(buf, uint64(v))
		}
	}
	return buf
}

// Write serialises the manifest and its trees to w in format Version.
// The trees slice must have one entry per shard (exactly one for
// KindPlain); m.Hilbert is written for KindSharded and ignored otherwise.
func Write(w io.Writer, m Manifest, trees []*Tree) error {
	if err := validateForWrite(m, trees); err != nil {
		return err
	}

	// Lay out the section list: the manifest extension first, then each
	// tree's section group in kind order.
	var secs []section
	var treeOf []*Tree // parallel to secs; nil for manifest-level sections
	if m.Kind == KindSharded {
		secs = append(secs, section{kind: secHilbert, tree: noTree})
		treeOf = append(treeOf, nil)
	}
	for ti, t := range trees {
		for _, kind := range treeSectionKinds {
			secs = append(secs, section{kind: kind, tree: uint32(ti)})
			treeOf = append(treeOf, t)
		}
	}

	// First pass: compute offsets, lengths and CRCs. Payloads are encoded
	// into one buffer sized for the largest section, so no append ever
	// grows it; the bytes written in the second pass are the exact same
	// encoding, so the table is correct by construction. Every payload
	// starts on a sectionAlign boundary (zero padding in between) so
	// mmap'd decoders can adopt the arrays in place.
	offset := uint64(headerSize + tableEntrySize*len(secs))
	var largest uint64
	for i := range secs {
		s := &secs[i]
		s.offset = alignUp(offset)
		s.length = sectionLength(s.kind, m, trees, treeOf[i])
		offset = s.offset + s.length
		largest = max(largest, s.length)
	}
	scratch := make([]byte, 0, largest)
	for i := range secs {
		s := &secs[i]
		scratch = encodeSection(scratch[:0], s.kind, m, trees, treeOf[i])
		if uint64(len(scratch)) != s.length {
			return fmt.Errorf("snapshot: internal error: section %d encoded %d bytes, declared %d",
				s.kind, len(scratch), s.length)
		}
		s.crc = crc32.ChecksumIEEE(scratch)
	}

	// Header.
	hdr := make([]byte, 0, headerSize+tableEntrySize*len(secs))
	hdr = append(hdr, Magic...)
	hdr = appendU32(hdr, Version)
	hdr = appendU32(hdr, uint32(m.Kind))
	hdr = appendU32(hdr, uint32(m.Dim))
	hdr = appendU32(hdr, uint32(len(trees)))
	hdr = appendU64(hdr, uint64(m.Points))
	hdr = appendU32(hdr, uint32(len(secs)))
	hdr = appendU32(hdr, 0)
	for _, s := range secs {
		hdr = appendU32(hdr, s.kind)
		hdr = appendU32(hdr, s.tree)
		hdr = appendU64(hdr, s.offset)
		hdr = appendU64(hdr, s.length)
		hdr = appendU32(hdr, s.crc)
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	// Second pass: stream the payloads, zero-padding up to each section's
	// aligned offset.
	var pad [sectionAlign]byte
	cursor := uint64(headerSize + tableEntrySize*len(secs))
	for i := range secs {
		if gap := secs[i].offset - cursor; gap > 0 {
			if _, err := w.Write(pad[:gap]); err != nil {
				return err
			}
		}
		scratch = encodeSection(scratch[:0], secs[i].kind, m, trees, treeOf[i])
		if _, err := w.Write(scratch); err != nil {
			return err
		}
		cursor = secs[i].offset + secs[i].length
	}
	return nil
}

// validateForWrite sanity-checks the writer's inputs so a bad caller
// produces an error instead of an unreadable file.
func validateForWrite(m Manifest, trees []*Tree) error {
	if m.Dim < 1 || m.Dim > MaxDim {
		return fmt.Errorf("snapshot: dimension %d outside [1, %d]", m.Dim, MaxDim)
	}
	switch m.Kind {
	case KindPlain:
		if len(trees) != 1 {
			return fmt.Errorf("snapshot: plain snapshot needs exactly 1 tree, got %d", len(trees))
		}
	case KindSharded:
		if len(trees) < 1 {
			return fmt.Errorf("snapshot: sharded snapshot needs at least 1 tree")
		}
		if m.Hilbert == nil || len(m.Hilbert.CutSizes) != len(trees) {
			return fmt.Errorf("snapshot: sharded snapshot needs Hilbert metadata with one cut per tree")
		}
	default:
		return fmt.Errorf("snapshot: unknown kind %v", m.Kind)
	}
	total := 0
	for ti, t := range trees {
		if len(t.Page) != len(t.Level) || len(t.Start) != len(t.Level) || len(t.End) != len(t.Level) {
			return fmt.Errorf("snapshot: tree %d: inconsistent node array lengths", ti)
		}
		if len(t.RectLo) != m.Dim || len(t.RectHi) != m.Dim || len(t.PointCols) != m.Dim {
			return fmt.Errorf("snapshot: tree %d: axis count does not match dimension %d", ti, m.Dim)
		}
		for a := 0; a < m.Dim; a++ {
			if len(t.RectLo[a]) != len(t.Child) || len(t.RectHi[a]) != len(t.Child) {
				return fmt.Errorf("snapshot: tree %d: rect columns do not match routing slots", ti)
			}
			if len(t.PointCols[a]) != len(t.IDs) {
				return fmt.Errorf("snapshot: tree %d: point columns do not match leaf slots", ti)
			}
		}
		if t.Size != len(t.IDs) {
			return fmt.Errorf("snapshot: tree %d: size %d != %d leaf slots", ti, t.Size, len(t.IDs))
		}
		total += t.Size
	}
	if total != m.Points {
		return fmt.Errorf("snapshot: manifest declares %d points, trees hold %d", m.Points, total)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Decoding

// Sniff inspects the first bytes of a file (at least SniffLen) and
// reports whether they open a snapshot and, if so, of which kind — the
// cheap dispatch for tools that must route a path to the right loader
// without decoding the file twice. It performs no validation beyond the
// magic; the full decoder still decides whether the file is sound.
func Sniff(head []byte) (Kind, bool) {
	if len(head) < SniffLen || string(head[:len(Magic)]) != Magic {
		return 0, false
	}
	return Kind(binary.LittleEndian.Uint32(head[12:])), true
}

// SniffLen is the prefix length Sniff needs.
const SniffLen = 16

// Read decodes a snapshot from r (reading it fully) and returns its
// manifest and trees. See Decode for validation guarantees.
func Read(r io.Reader) (Manifest, []*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Manifest{}, nil, err
	}
	return Decode(data)
}

// corruptf wraps ErrCorrupt with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// frame is the parsed, frame-checked skeleton of a snapshot: header
// fields plus the section table, grouped per tree. Section payloads are
// NOT yet checksummed or interpreted.
type frame struct {
	m        Manifest // Kind and Dim set; Points/Hilbert not yet
	numTrees int
	points   uint64
	secs     []section
	byTree   []map[uint32][]byte
	hilbert  []byte
}

// parseFrame validates the header and section table of data: magic,
// version, counts, contiguous aligned section layout ending exactly at
// the end of input, zero padding between sections, every payload in
// bounds, each section kind exactly once per tree. After parseFrame, any
// slice of any section payload is in bounds — but the payload bytes are
// unverified until their CRCs are checked.
func parseFrame(data []byte) (*frame, error) {
	if len(data) < len(Magic) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: header needs %d bytes, have %d", ErrTruncated, headerSize, len(data))
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(data[off:]) }

	if v := u32(8); v != Version {
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, v, Version)
	}
	f := &frame{
		m:        Manifest{Kind: Kind(u32(12)), Dim: int(u32(16))},
		numTrees: int(u32(20)),
		points:   u64(24),
	}
	numSecs := int(u32(32))

	if f.m.Kind != KindPlain && f.m.Kind != KindSharded {
		return nil, corruptf("unknown index kind %d", uint32(f.m.Kind))
	}
	if f.m.Dim < 1 || f.m.Dim > MaxDim {
		return nil, corruptf("dimension %d", f.m.Dim)
	}
	if f.numTrees < 1 {
		return nil, corruptf("%d trees", f.numTrees)
	}
	if f.m.Kind == KindPlain && f.numTrees != 1 {
		return nil, corruptf("plain snapshot with %d trees", f.numTrees)
	}
	wantSecs := f.numTrees * len(treeSectionKinds)
	if f.m.Kind == KindSharded {
		wantSecs++
	}
	if numSecs != wantSecs {
		return nil, corruptf("%d sections for %d trees (want %d)", numSecs, f.numTrees, wantSecs)
	}
	tableEnd := headerSize + tableEntrySize*numSecs
	if len(data) < tableEnd {
		return nil, fmt.Errorf("%w: section table needs %d bytes, have %d", ErrTruncated, tableEnd, len(data))
	}

	// Parse and frame-check the section table: payloads must be laid out
	// in table order at ascending aligned offsets (zero padding between),
	// ending exactly at end of input.
	f.secs = make([]section, numSecs)
	next := uint64(tableEnd)
	for i := range f.secs {
		off := headerSize + tableEntrySize*i
		f.secs[i] = section{
			kind:   u32(off),
			tree:   u32(off + 4),
			offset: u64(off + 8),
			length: u64(off + 16),
			crc:    u32(off + 24),
		}
		if want := alignUp(next); f.secs[i].offset != want {
			return nil, corruptf("section %d at offset %d, expected %d", i, f.secs[i].offset, want)
		}
		if f.secs[i].offset > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section %d starts at %d, have %d bytes",
				ErrTruncated, i, f.secs[i].offset, len(data))
		}
		for _, b := range data[next:f.secs[i].offset] {
			if b != 0 {
				return nil, corruptf("nonzero padding before section %d", i)
			}
		}
		next = f.secs[i].offset
		if f.secs[i].length > uint64(len(data))-next {
			return nil, fmt.Errorf("%w: section %d needs %d bytes at offset %d, have %d",
				ErrTruncated, i, f.secs[i].length, next, uint64(len(data))-next)
		}
		next += f.secs[i].length
	}
	if next != uint64(len(data)) {
		return nil, corruptf("%d trailing bytes after last section", uint64(len(data))-next)
	}

	// Group the sections: manifest extension plus one group per tree, each
	// kind exactly once.
	f.byTree = make([]map[uint32][]byte, f.numTrees)
	for i := range f.byTree {
		f.byTree[i] = make(map[uint32][]byte, len(treeSectionKinds))
	}
	for i, s := range f.secs {
		payload := data[s.offset : s.offset+s.length]
		if s.kind == secHilbert {
			if f.m.Kind != KindSharded || f.hilbert != nil {
				return nil, corruptf("unexpected Hilbert section %d", i)
			}
			f.hilbert = payload
			continue
		}
		if int(s.tree) >= f.numTrees {
			return nil, corruptf("section %d references tree %d of %d", i, s.tree, f.numTrees)
		}
		if _, dup := f.byTree[s.tree][s.kind]; dup {
			return nil, corruptf("duplicate section kind %d for tree %d", s.kind, s.tree)
		}
		f.byTree[s.tree][s.kind] = payload
	}
	if f.m.Kind == KindSharded && f.hilbert == nil {
		return nil, corruptf("sharded snapshot without Hilbert section")
	}
	return f, nil
}

// verifyChecksums checks every section's CRC against its payload.
func (f *frame) verifyChecksums(data []byte) error {
	for i, s := range f.secs {
		payload := data[s.offset : s.offset+s.length]
		if crc := crc32.ChecksumIEEE(payload); crc != s.crc {
			return fmt.Errorf("%w: section %d (kind %d): %08x != %08x", ErrChecksum, i, s.kind, crc, s.crc)
		}
	}
	return nil
}

// crossCheck validates the whole-snapshot invariants that span trees:
// the declared point total, disjoint per-tree page ranges (the trees of
// a sharded snapshot share one accountant and possibly one LRU buffer,
// which is only sound over disjoint pages) and the Hilbert cut sizes.
func crossCheck(m *Manifest, trees []*Tree, points uint64) error {
	total := uint64(0)
	for _, t := range trees {
		total += uint64(t.Size)
	}
	if total != points {
		return corruptf("manifest declares %d points, trees hold %d", points, total)
	}
	if len(trees) > 1 {
		order := make([]*Tree, len(trees))
		copy(order, trees)
		slices.SortFunc(order, func(a, b *Tree) int {
			switch {
			case a.FirstPage < b.FirstPage:
				return -1
			case a.FirstPage > b.FirstPage:
				return 1
			default:
				return 0
			}
		})
		for i := 1; i < len(order); i++ {
			if order[i].FirstPage < order[i-1].FirstPage+order[i-1].Pages {
				return corruptf("tree page ranges overlap at page %d", order[i].FirstPage)
			}
		}
	}
	if m.Hilbert != nil {
		for i, c := range m.Hilbert.CutSizes {
			if c != int64(trees[i].Size) {
				return corruptf("Hilbert cut %d declares %d points, tree holds %d", i, c, trees[i].Size)
			}
		}
	}
	m.Points = int(points)
	return nil
}

// Decode parses and fully validates a snapshot. Corrupt or truncated
// input yields a typed error (ErrBadMagic, ErrVersion, ErrChecksum,
// ErrTruncated, ErrCorrupt) — never a panic — and allocations are
// bounded by the actual input size, not by declared counts. The returned
// trees own their memory (nothing aliases data); for the zero-copy
// variant see DecodeAdopted.
func Decode(data []byte) (Manifest, []*Tree, error) {
	f, err := parseFrame(data)
	if err != nil {
		return Manifest{}, nil, err
	}
	// Verify every section's checksum before interpreting any payload.
	if err := f.verifyChecksums(data); err != nil {
		return Manifest{}, nil, err
	}
	m := f.m
	if m.Kind == KindSharded {
		h, err := decodeHilbert(f.hilbert, f.numTrees)
		if err != nil {
			return Manifest{}, nil, err
		}
		m.Hilbert = h
	}
	trees := make([]*Tree, f.numTrees)
	for ti := range trees {
		t, err := decodeTree(f.byTree[ti], m.Dim, ti)
		if err != nil {
			return Manifest{}, nil, err
		}
		trees[ti] = t
	}
	if err := crossCheck(&m, trees, f.points); err != nil {
		return Manifest{}, nil, err
	}
	return m, trees, nil
}

// decodeHilbert parses the manifest-extension payload.
func decodeHilbert(p []byte, numTrees int) (*Hilbert, error) {
	want := 8 + 32 + 8*numTrees
	if len(p) != want {
		return nil, corruptf("Hilbert section is %d bytes, want %d", len(p), want)
	}
	h := &Hilbert{Order: binary.LittleEndian.Uint32(p)}
	f64 := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p[off:])) }
	h.Lo[0], h.Lo[1] = f64(8), f64(16)
	h.Hi[0], h.Hi[1] = f64(24), f64(32)
	h.CutSizes = make([]int64, numTrees)
	for i := range h.CutSizes {
		c := int64(binary.LittleEndian.Uint64(p[40+8*i:]))
		if c < 0 {
			return nil, corruptf("Hilbert cut %d is negative", i)
		}
		h.CutSizes[i] = c
	}
	return h, nil
}

// parseTreeMeta parses one tree's fixed-size meta section and checks the
// counters for internal consistency. The meta counters must agree with
// the actual section lengths (checked by the callers' per-section
// decode/adopt helpers) before anything is allocated, so a forged count
// cannot over-allocate.
func parseTreeMeta(meta []byte, ti int) (t *Tree, nodes, rslots, lslots int, err error) {
	if meta == nil {
		return nil, 0, 0, 0, corruptf("tree %d: missing meta section", ti)
	}
	if len(meta) != treeMetaSize {
		return nil, 0, 0, 0, corruptf("tree %d: meta section is %d bytes, want %d", ti, len(meta), treeMetaSize)
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(meta[off:]) }
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(meta[off:]) }
	t = &Tree{
		Size:       int(u64(0)),
		Height:     int(u32(8)),
		MaxEntries: int(u32(12)),
		MinEntries: int(u32(16)),
		Root:       int32(u32(20)),
		FirstPage:  int64(u64(40)),
		Pages:      int64(u64(48)),
	}
	nodes = int(u32(24))
	rslots = int(u32(28))
	lslots = int(u32(32))

	if t.Size < 0 || t.Height < 1 || nodes < 1 || rslots < 0 || lslots < 0 {
		return nil, 0, 0, 0, corruptf("tree %d: impossible counters (size %d, height %d, %d nodes, %d/%d slots)",
			ti, t.Size, t.Height, nodes, rslots, lslots)
	}
	if t.Size != lslots {
		return nil, 0, 0, 0, corruptf("tree %d: size %d != %d leaf slots", ti, t.Size, lslots)
	}
	if t.FirstPage < 0 || t.Pages < int64(nodes) || t.FirstPage > math.MaxInt64-t.Pages {
		return nil, 0, 0, 0, corruptf("tree %d: %d pages for %d nodes (first page %d)", ti, t.Pages, nodes, t.FirstPage)
	}
	if t.Root < 0 || int(t.Root) >= nodes {
		return nil, 0, 0, 0, corruptf("tree %d: root %d of %d nodes", ti, t.Root, nodes)
	}
	if t.MaxEntries < 4 || t.MinEntries < 1 || t.MinEntries > t.MaxEntries/2 {
		return nil, 0, 0, 0, corruptf("tree %d: node capacity %d/%d", ti, t.MinEntries, t.MaxEntries)
	}
	return t, nodes, rslots, lslots, nil
}

// decodeTree parses and structurally validates one tree's section group.
func decodeTree(secs map[uint32][]byte, dim, ti int) (*Tree, error) {
	t, nodes, rslots, lslots, err := parseTreeMeta(secs[secTreeMeta], ti)
	if err != nil {
		return nil, err
	}
	if t.Level, err = decodeI32s(secs[secLevels], nodes, ti, "levels"); err != nil {
		return nil, err
	}
	if t.Page, err = decodeI64s(secs[secPages], nodes, ti, "pages"); err != nil {
		return nil, err
	}
	ranges, err := decodeI32s(secs[secRanges], 2*nodes, ti, "ranges")
	if err != nil {
		return nil, err
	}
	t.Start = ranges[:nodes:nodes]
	t.End = ranges[nodes:]
	if t.Child, err = decodeI32s(secs[secChildren], rslots, ti, "children"); err != nil {
		return nil, err
	}
	if t.RectLo, err = decodeF64Cols(secs[secRectLo], dim, rslots, ti, "rect-lo"); err != nil {
		return nil, err
	}
	if t.RectHi, err = decodeF64Cols(secs[secRectHi], dim, rslots, ti, "rect-hi"); err != nil {
		return nil, err
	}
	if t.PointCols, err = decodeF64Cols(secs[secPoints], dim, lslots, ti, "points"); err != nil {
		return nil, err
	}
	if t.IDs, err = decodeI64s(secs[secIDs], lslots, ti, "ids"); err != nil {
		return nil, err
	}
	if err := validateTreeStructure(t, nodes, rslots, lslots, ti); err != nil {
		return nil, err
	}
	return t, nil
}

// The decode helpers compare declared element counts against actual
// section lengths in int64, so the arithmetic cannot wrap even on
// 32-bit platforms or with forged counts — and every allocation below
// is therefore bounded by the real input size.

func decodeI32s(p []byte, n, ti int, what string) ([]int32, error) {
	if p == nil {
		return nil, corruptf("tree %d: missing %s section", ti, what)
	}
	if int64(len(p)) != 4*int64(n) {
		return nil, corruptf("tree %d: %s section is %d bytes, want %d elements", ti, what, len(p), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out, nil
}

func decodeI64s(p []byte, n, ti int, what string) ([]int64, error) {
	if p == nil {
		return nil, corruptf("tree %d: missing %s section", ti, what)
	}
	if int64(len(p)) != 8*int64(n) {
		return nil, corruptf("tree %d: %s section is %d bytes, want %d elements", ti, what, len(p), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out, nil
}

func decodeF64Cols(p []byte, dim, slots, ti int, what string) ([][]float64, error) {
	if p == nil {
		return nil, corruptf("tree %d: missing %s section", ti, what)
	}
	// dim ≤ MaxDim and slots < 2^32, so the product stays far below the
	// int64 range.
	if int64(len(p)) != 8*int64(dim)*int64(slots) {
		return nil, corruptf("tree %d: %s section is %d bytes, want %d×%d floats", ti, what, len(p), dim, slots)
	}
	// One backing slab for all axes keeps the loaded arena as cache-dense
	// as a freshly packed one. len(p) passed the exact-length check, so
	// dim*slots fits the platform int.
	flat := make([]float64, dim*slots)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	cols := make([][]float64, dim)
	for a := 0; a < dim; a++ {
		cols[a] = flat[a*slots : (a+1)*slots : (a+1)*slots]
	}
	return cols, nil
}

// validateTreeStructure checks the arena's graph: every node reachable
// from the root exactly once in a proper tree, child levels descending
// by one, and every slot of both slot spaces owned by exactly one node
// (a partition, not just a matching total). After this, reconstruction
// cannot go out of bounds, loop, or alias entries between nodes.
func validateTreeStructure(t *Tree, nodes, rslots, lslots, ti int) error {
	if int(t.Level[t.Root])+1 != t.Height {
		return corruptf("tree %d: root level %d, height %d", ti, t.Level[t.Root], t.Height)
	}
	visited := make([]bool, nodes)
	leafOwned := make([]bool, lslots)
	routOwned := make([]bool, rslots)
	claim := func(owned []bool, s, e int32) bool {
		for i := s; i < e; i++ {
			if owned[i] {
				return false
			}
			owned[i] = true
		}
		return true
	}
	// Iterative DFS: corrupt input must not overflow the goroutine stack.
	stack := []int32{t.Root}
	visited[t.Root] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lvl := t.Level[n]
		s, e := t.Start[n], t.End[n]
		if s < 0 || e < s {
			return corruptf("tree %d: node %d slot range [%d,%d)", ti, n, s, e)
		}
		if lvl == 0 {
			if int(e) > lslots {
				return corruptf("tree %d: leaf %d range [%d,%d) of %d slots", ti, n, s, e, lslots)
			}
			if !claim(leafOwned, s, e) {
				return corruptf("tree %d: leaf %d overlaps another node's slots", ti, n)
			}
			continue
		}
		if lvl < 0 {
			return corruptf("tree %d: node %d level %d", ti, n, lvl)
		}
		if int(e) > rslots {
			return corruptf("tree %d: node %d range [%d,%d) of %d routing slots", ti, n, s, e, rslots)
		}
		if !claim(routOwned, s, e) {
			return corruptf("tree %d: node %d overlaps another node's routing slots", ti, n)
		}
		for i := s; i < e; i++ {
			c := t.Child[i]
			if c < 0 || int(c) >= nodes {
				return corruptf("tree %d: slot %d child %d of %d nodes", ti, i, c, nodes)
			}
			if visited[c] {
				return corruptf("tree %d: node %d has multiple parents or forms a cycle", ti, c)
			}
			if t.Level[c] != lvl-1 {
				return corruptf("tree %d: child %d at level %d under level %d", ti, c, t.Level[c], lvl)
			}
			visited[c] = true
			stack = append(stack, c)
		}
	}
	for n, v := range visited {
		if !v {
			return corruptf("tree %d: node %d unreachable from root", ti, n)
		}
	}
	for i, v := range leafOwned {
		if !v {
			return corruptf("tree %d: leaf slot %d owned by no node", ti, i)
		}
	}
	for i, v := range routOwned {
		if !v {
			return corruptf("tree %d: routing slot %d owned by no node", ti, i)
		}
	}
	// Distinct pages per node, inside the tree's declared page range, keep
	// LRU-buffer and node-access accounting faithful.
	seen := make(map[int64]struct{}, nodes)
	for n, pg := range t.Page {
		if pg < t.FirstPage || pg >= t.FirstPage+t.Pages {
			return corruptf("tree %d: node %d page %d outside [%d,%d)", ti, n, pg, t.FirstPage, t.FirstPage+t.Pages)
		}
		if _, dup := seen[pg]; dup {
			return corruptf("tree %d: duplicate page id %d", ti, pg)
		}
		seen[pg] = struct{}{}
	}
	return nil
}

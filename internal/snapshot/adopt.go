package snapshot

import (
	"encoding/binary"
	"io"
	"sync"
	"unsafe"

	"gnn/internal/mmapfile"
)

// hostLittleEndian reports whether this machine stores multi-byte
// integers least-significant byte first — the snapshot wire order. Only
// on such hosts can the fixed-width columns be reinterpreted in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// adoptInPlace selects whether DecodeAdopted may alias an aligned input
// buffer's columns (little-endian hosts) or must copy it first. Only host
// endianness sets it; the package's tests clear it to run the copy path.
var adoptInPlace = hostLittleEndian

// Adopted is a decoded snapshot whose trees' column slices alias a
// buffer instead of holding copies of it. DecodeAdopted frame-checks the
// input eagerly (magic, version, section table, every payload in bounds,
// the checksummed tree meta and manifest extension, section lengths), so
// all columns are safe to index — but the column sections' checksums and
// the tree-structure validation are deferred to Verify, which the caller
// MUST run (and check) before traversing the trees.
//
// Where the input can be adopted in place (ZeroCopy), the trees alias
// it: it must stay alive, unmodified, for the lifetime of the Adopted and
// everything built from its trees; with an mmap'd buffer that means unmap
// only after the last query completes. Elsewhere (a big-endian host, or a
// misaligned buffer base) DecodeAdopted copies the input once into an
// 8-byte aligned buffer, adopts the copy and verifies it before
// returning: the trees alias the copy, Verify returns the cached outcome,
// and nothing references the input afterwards.
type Adopted struct {
	Manifest Manifest
	Trees    []*Tree
	// ZeroCopy reports whether the trees alias the input buffer (true)
	// or a private aligned copy of it, verified at decode time (false).
	ZeroCopy bool

	data   []byte
	src    io.ReaderAt
	secs   []section
	points uint64

	once sync.Once
	err  error
}

// DecodeAdopted decodes a snapshot, adopting its columns where they lie.
// See the Adopted contract for what is and is not yet validated on
// return. Verify checksums the buffer in place; DecodeMapped checksums a
// mapped file through its descriptor instead.
func DecodeAdopted(data []byte) (*Adopted, error) {
	zeroCopy := adoptable(data)
	if !zeroCopy {
		data = mmapfile.AlignedCopy(data)
	}
	f, err := parseFrame(data)
	if err != nil {
		return nil, err
	}
	a, err := adopt(f, data)
	if err != nil {
		return nil, err
	}
	a.ZeroCopy = zeroCopy
	if !zeroCopy {
		if err := a.Verify(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// DecodeMapped is DecodeAdopted over a mapped file, whose Verify reads
// the section checksums through the descriptor the mapping was made from
// (mmapfile.File's ReaderAt) in bounded chunks: verification leaves the
// mapped columns out of memory, touching only the pages of the header,
// the section table and the meta and node sections. A heap copy (the
// mmapfile fallback) is checksummed in place.
func DecodeMapped(mf *mmapfile.File) (*Adopted, error) {
	a, err := DecodeAdopted(mf.Data())
	if err != nil {
		return nil, err
	}
	a.src = mf.ReaderAt()
	return a, nil
}

// VerifyFile validates the snapshot file at path with every check of the
// decoder, in its order (DecodeMapped, then Verify): frame, the scalar
// sections' checksums, tree meta and section lengths, the column
// sections' checksums, tree structure, cross-checks. It keeps the file's
// columns out of memory: the frame is parsed from a read-only mapping,
// the column checksums read the file through the mapping's descriptor
// and a verifyChunk buffer, and the structure checks run on node
// sections adopted from the mapping, so the only mapped pages touched
// hold the header, the section table, the padding between sections and
// the meta and node sections.
func VerifyFile(path string) error {
	mf, err := mmapfile.Open(path)
	if err != nil {
		return err
	}
	defer mf.Close()
	a, err := DecodeMapped(mf)
	if err != nil {
		return err
	}
	return a.Verify()
}

// adoptable reports whether data's columns may be reinterpreted in
// place: a little-endian host and an 8-byte aligned base.
func adoptable(data []byte) bool {
	return adoptInPlace && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0
}

// adopt builds the trees of a frame-checked snapshot over its payloads in
// data, an 8-byte aligned buffer. It parses the scalar sections — the
// manifest extension and the tree metas, a few dozen bytes each — so it
// checksums them first, in place; the column sections' checksums wait
// for Verify.
func adopt(f *frame, data []byte) (*Adopted, error) {
	if err := f.verifyChecksums(crcInMemory(data), false); err != nil {
		return nil, err
	}
	m := f.m
	m.Points = int(f.points) // declared; confirmed against trees in Verify
	if m.Kind == KindSharded {
		h, err := decodeHilbert(f.hilbert, f.numTrees)
		if err != nil {
			return nil, err
		}
		m.Hilbert = h
	}
	trees := make([]*Tree, f.numTrees)
	for ti := range trees {
		t, err := adoptTree(f.byTree[ti], m.Dim, ti)
		if err != nil {
			return nil, err
		}
		trees[ti] = t
	}
	return &Adopted{
		Manifest: m,
		Trees:    trees,
		data:     data,
		secs:     f.secs,
		points:   f.points,
	}, nil
}

// Verify runs the validation DecodeAdopted deferred: every column
// section's CRC-32 against the bytes as they are now (read through the
// descriptor after DecodeMapped, in the buffer otherwise), then the
// per-tree structural validation and whole-snapshot cross-checks. On a
// private copy it rewrites the column sections in host byte order
// between the two. Idempotent and safe for concurrent callers; the first
// outcome is cached. Until Verify has returned nil, the adopted trees
// must not be traversed.
func (a *Adopted) Verify() error {
	a.once.Do(func() {
		f := frame{secs: a.secs}
		if a.err = f.verifyChecksums(checksummer(a.data, a.src), true); a.err != nil {
			return
		}
		if !a.ZeroCopy {
			toHostOrder(a.data, a.secs)
		}
		a.err = a.checkStructure()
	})
	return a.err
}

// checksummer checksums through src when there is one, and data in
// place otherwise.
func checksummer(data []byte, src io.ReaderAt) crcFunc {
	if src != nil {
		return crcReading(src)
	}
	return crcInMemory(data)
}

// toHostOrder rewrites the column sections of data, little-endian on the
// wire, in host byte order in place, so the adopted slices read them
// right: a byte swap on a big-endian host, an identity elsewhere. adopt
// has checked every section's length against its element count.
func toHostOrder(data []byte, secs []section) {
	for _, s := range secs {
		p := data[s.offset : s.offset+s.length]
		switch columnWidth(s.kind) {
		case 4:
			for i := 0; i < len(p); i += 4 {
				binary.NativeEndian.PutUint32(p[i:], binary.LittleEndian.Uint32(p[i:]))
			}
		case 8:
			for i := 0; i < len(p); i += 8 {
				binary.NativeEndian.PutUint64(p[i:], binary.LittleEndian.Uint64(p[i:]))
			}
		}
	}
}

// checkStructure runs the per-tree structural validation and the
// whole-snapshot cross-checks on the adopted trees. They read the node
// sections and the meta counters only, never a coordinate or id column.
func (a *Adopted) checkStructure() error {
	for ti, t := range a.Trees {
		if err := validateTreeStructure(t, len(t.Level), len(t.Child), len(t.IDs), ti); err != nil {
			return err
		}
	}
	return crossCheck(&a.Manifest, a.Trees, a.points)
}

// adoptTree builds one tree whose column slices alias the section
// payloads, after the meta and exact-length checks; the structural
// validation waits for Verify.
func adoptTree(secs map[uint32][]byte, dim, ti int) (*Tree, error) {
	t, nodes, rslots, lslots, err := parseTreeMeta(secs[secTreeMeta], ti)
	if err != nil {
		return nil, err
	}
	if t.Level, err = adoptI32s(secs[secLevels], nodes, ti, "levels"); err != nil {
		return nil, err
	}
	if t.Page, err = adoptI64s(secs[secPages], nodes, ti, "pages"); err != nil {
		return nil, err
	}
	ranges, err := adoptI32s(secs[secRanges], 2*nodes, ti, "ranges")
	if err != nil {
		return nil, err
	}
	t.Start = ranges[:nodes:nodes]
	t.End = ranges[nodes:]
	if t.Child, err = adoptI32s(secs[secChildren], rslots, ti, "children"); err != nil {
		return nil, err
	}
	if t.RectLo, err = adoptF64Cols(secs[secRectLo], dim, rslots, ti, "rect-lo"); err != nil {
		return nil, err
	}
	if t.RectHi, err = adoptF64Cols(secs[secRectHi], dim, rslots, ti, "rect-hi"); err != nil {
		return nil, err
	}
	if t.PointCols, err = adoptF64Cols(secs[secPoints], dim, lslots, ti, "points"); err != nil {
		return nil, err
	}
	if t.IDs, err = adoptI64s(secs[secIDs], lslots, ti, "ids"); err != nil {
		return nil, err
	}
	return t, nil
}

// The adopt helpers check a section is present and exactly as long as
// its declared element count, then reinterpret the payload in place.
// They compare the lengths in int64, so the arithmetic cannot wrap even
// on 32-bit platforms or with forged counts. The reinterpretation is
// sound because the buffer base is 8-byte aligned and the writer aligns
// every section offset to 64.

func adoptI32s(p []byte, n, ti int, what string) ([]int32, error) {
	if p == nil {
		return nil, corruptf("tree %d: missing %s section", ti, what)
	}
	if int64(len(p)) != 4*int64(n) {
		return nil, corruptf("tree %d: %s section is %d bytes, want %d elements", ti, what, len(p), n)
	}
	if n == 0 {
		return []int32{}, nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(p))), n), nil
}

func adoptI64s(p []byte, n, ti int, what string) ([]int64, error) {
	if p == nil {
		return nil, corruptf("tree %d: missing %s section", ti, what)
	}
	if int64(len(p)) != 8*int64(n) {
		return nil, corruptf("tree %d: %s section is %d bytes, want %d elements", ti, what, len(p), n)
	}
	if n == 0 {
		return []int64{}, nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(p))), n), nil
}

func adoptF64Cols(p []byte, dim, slots, ti int, what string) ([][]float64, error) {
	if p == nil {
		return nil, corruptf("tree %d: missing %s section", ti, what)
	}
	// dim ≤ MaxDim and slots < 2^32, so the product stays far below the
	// int64 range.
	if int64(len(p)) != 8*int64(dim)*int64(slots) {
		return nil, corruptf("tree %d: %s section is %d bytes, want %d×%d floats", ti, what, len(p), dim, slots)
	}
	cols := make([][]float64, dim)
	if slots == 0 {
		for a := range cols {
			cols[a] = []float64{}
		}
		return cols, nil
	}
	flat := unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(p))), dim*slots)
	for a := 0; a < dim; a++ {
		cols[a] = flat[a*slots : (a+1)*slots : (a+1)*slots]
	}
	return cols, nil
}

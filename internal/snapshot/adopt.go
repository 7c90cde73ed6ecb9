package snapshot

import (
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

// Adopted is a snapshot decoded in place: the trees' column slices alias
// the input buffer instead of copying it. DecodeAdopted frame-checks the
// input eagerly (magic, version, section table, every payload in
// bounds), so all columns are safe to index — but section checksums and
// the tree-structure validation are deferred to Verify, which the caller
// MUST run (and check) before traversing the trees. The input buffer
// must stay alive, unmodified, for the lifetime of the Adopted and
// everything built from its trees; with an mmap'd buffer that means
// unmap only after the last query completes.
//
// On hosts where in-place reinterpretation is unsound (big-endian, or a
// misaligned buffer base), DecodeAdopted transparently falls back to the
// fully-validated copying Decode: ZeroCopy reports false, Verify is a
// no-op, and nothing references data afterwards.
type Adopted struct {
	Manifest Manifest
	Trees    []*Tree
	// ZeroCopy reports whether the trees alias the input buffer (true)
	// or were copied and fully validated at decode time (false).
	ZeroCopy bool

	data   []byte
	src    io.ReaderAt
	secs   []section
	points uint64

	once sync.Once
	err  error
}

// DecodeAdopted parses a snapshot without copying its columns. See the
// Adopted contract for what is and is not yet validated on return.
// Verify checksums data in place; DecodeMapped checksums a mapped file
// through its descriptor instead.
func DecodeAdopted(data []byte) (*Adopted, error) {
	f, err := parseFrame(data)
	if err != nil {
		return nil, err
	}
	if !adoptable(data) {
		// In-place reinterpretation is unsound here; decode the slow,
		// safe way. Verified eagerly, so Verify has nothing left to do.
		m, trees, err := Decode(data)
		if err != nil {
			return nil, err
		}
		return &Adopted{Manifest: m, Trees: trees}, nil
	}
	return adopt(f, data)
}

// DecodeMapped is DecodeAdopted over a mapped file, whose Verify reads
// the section checksums through the descriptor the mapping was made from
// (mmapfile.File's ReaderAt) in bounded chunks: verification leaves the
// mapped columns out of memory, touching only the pages of the header,
// the section table and the meta and node sections. The fallback's heap
// copy is checksummed in place.
func DecodeMapped(mf *mmapfile.File) (*Adopted, error) {
	a, err := DecodeAdopted(mf.Data())
	if err != nil {
		return nil, err
	}
	a.src = mf.ReaderAt()
	return a, nil
}

// adoptable reports whether data's columns may be reinterpreted in
// place: a little-endian host and an 8-byte aligned base.
func adoptable(data []byte) bool {
	return hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0
}

// adopt builds the trees of a frame-checked, adoptable snapshot over its
// payloads in data.
func adopt(f *frame, data []byte) (*Adopted, error) {
	m := f.m
	m.Points = int(f.points) // declared; confirmed against trees in Verify
	if m.Kind == KindSharded {
		// The manifest extension is a handful of scalars — parse it
		// eagerly (all reads are length-checked) rather than thread lazy
		// state through it; its CRC is still checked in Verify.
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
		ZeroCopy: true,
		data:     data,
		secs:     f.secs,
		points:   f.points,
	}, nil
}

// Verify runs the validation DecodeAdopted deferred: every section's
// CRC-32 against the bytes as they are now (read through the descriptor
// after DecodeMapped, in the buffer otherwise), then the per-tree
// structural validation and whole-snapshot cross-checks — exactly the
// checks Decode performs eagerly. Idempotent and safe for concurrent
// callers; the first outcome is cached. Until Verify has returned nil,
// the adopted trees must not be traversed.
func (a *Adopted) Verify() error {
	a.once.Do(func() {
		if !a.ZeroCopy {
			return // the copying fallback validated everything already
		}
		f := frame{secs: a.secs}
		if a.err = f.verifyChecksums(checksummer(a.data, a.src)); a.err != nil {
			return
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

// VerifyFile validates the snapshot file at path with every check Decode
// runs, in Decode's order: frame, section checksums, tree structure,
// cross-checks. It keeps the file's columns out of memory: the frame is
// parsed from a read-only mapping, the checksums read the file through
// the mapping's descriptor and a verifyChunk buffer, and the structure
// checks run on node sections adopted from the mapping, so the only
// mapped pages touched hold the header, the section table, the padding
// between sections and the meta and node sections. Where the mapping
// cannot be adopted in place (a big-endian host) the file is decoded the
// copying way.
func VerifyFile(path string) error {
	mf, err := mmapfile.Open(path)
	if err != nil {
		return err
	}
	defer mf.Close()
	data := mf.Data()
	f, err := parseFrame(data)
	if err != nil {
		return err
	}
	if !adoptable(data) {
		_, _, err := Decode(data)
		return err
	}
	if err := f.verifyChecksums(checksummer(data, mf.ReaderAt())); err != nil {
		return err
	}
	a, err := adopt(f, data)
	if err != nil {
		return err
	}
	return a.checkStructure()
}

// adoptTree builds one tree whose column slices alias the section
// payloads. Performs the same meta and length checks as decodeTree but
// skips element copies and structural validation (deferred to Verify).
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

// The adopt helpers mirror the decode helpers' nil and exact-length
// checks, then reinterpret the payload in place. Sound because the
// caller established the host is little-endian and the buffer base is
// 8-byte aligned, and the writer aligns every section offset to 64.

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

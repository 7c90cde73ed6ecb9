package snapshot_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"gnn/internal/mmapfile"
	"gnn/internal/snapshot"
	"gnn/internal/snapshot/snapshottest"
)

// FuzzSnapshotDecode throws arbitrary bytes at the decoder: it must
// return a typed error or a fully valid snapshot — never panic, never
// over-allocate from forged counts — and anything it accepts must
// re-encode and decode again (the accepted subset is self-consistent).
// Each input is decoded twice, from an 8-byte aligned copy (adopted in
// place) and from a misaligned one (copied once, then adopted): the two
// must agree on accepting it, on the typed error when they reject it and
// on the manifest and every column when they accept it.
// The seeds cover plain 2-D snapshots (valid, truncated, bit-flipped),
// 1-D and 3-D ones, and 2- and 4-tree sharded ones with their Hilbert-cut
// section (the 4-tree one also truncated and bit-flipped).
func FuzzSnapshotDecode(f *testing.F) {
	var seeds [][]byte
	for _, n := range []int{0, 3, 120} {
		valid := snapshottest.EncodePlain(f, snapshottest.BuildArena(f, n, 2, 8, int64(n)+1), 2)
		seeds = append(seeds, valid, valid[:len(valid)/2], corruptSeed(valid, 13), corruptSeed(valid, len(valid)-2))
	}
	for _, dim := range []int{1, 3} {
		seeds = append(seeds, snapshottest.EncodePlain(f, snapshottest.BuildArena(f, 60, dim, 6, int64(dim)), dim))
	}
	seeds = append(seeds, shardedSeed(f, 2))
	four := shardedSeed(f, 4)
	seeds = append(seeds, four, four[:len(four)*2/3], corruptSeed(four, len(four)/2))
	seeds = append(seeds, []byte{}, []byte("GNNSNAP\x00"), []byte("not a snapshot"))
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, trees, err := snapshot.Decode(mmapfile.AlignedCopy(data))
		cm, ctrees, cerr := snapshot.Decode(misaligned(data))
		for _, typed := range decodeErrors {
			if errors.Is(err, typed) != errors.Is(cerr, typed) {
				t.Fatalf("in place: %v; copied: %v", err, cerr)
			}
		}
		if (err == nil) != (cerr == nil) {
			t.Fatalf("in place: %v; copied: %v", err, cerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(m, cm) || !reflect.DeepEqual(trees, ctrees) {
			t.Fatal("the in-place and copied decodes differ")
		}
		var buf bytes.Buffer
		if err := snapshot.Write(&buf, m, trees); err != nil {
			t.Fatalf("accepted snapshot fails to re-encode: %v", err)
		}
		if _, _, err := snapshot.Decode(buf.Bytes()); err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
	})
}

// shardedSeed encodes a valid sharded snapshot of trees 2-D trees on
// disjoint page ranges, each tree's first page the page after the one
// before it.
func shardedSeed(f *testing.F, trees int) []byte {
	m := snapshot.Manifest{Kind: snapshot.KindSharded, Dim: 2,
		Hilbert: &snapshot.Hilbert{Order: 16, Hi: [2]float64{1000, 1000}}}
	var sts []*snapshot.Tree
	var first int64
	for i := 0; i < trees; i++ {
		st := snapshottest.BuildArenaAt(f, 40+10*i, 2, 8, int64(i)+1, first)
		first += st.Pages
		m.Points += st.Size
		m.Hilbert.CutSizes = append(m.Hilbert.CutSizes, int64(st.Size))
		sts = append(sts, st)
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, m, sts); err != nil {
		f.Fatalf("seed write: %v", err)
	}
	if _, _, err := snapshot.Decode(buf.Bytes()); err != nil {
		f.Fatalf("sharded seed does not decode: %v", err)
	}
	return buf.Bytes()
}

// decodeErrors are the decoder's typed errors.
var decodeErrors = []error{
	snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrChecksum,
	snapshot.ErrTruncated, snapshot.ErrCorrupt,
}

// misaligned returns a copy of data whose first byte sits one byte past
// an 8-byte boundary, which the decoder cannot adopt in place.
func misaligned(data []byte) []byte {
	return mmapfile.AlignedCopy(append([]byte{0}, data...))[1:]
}

func corruptSeed(data []byte, off int) []byte {
	out := bytes.Clone(data)
	out[off] ^= 0xff
	return out
}

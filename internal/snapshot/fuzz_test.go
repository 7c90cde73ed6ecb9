package snapshot_test

import (
	"bytes"
	"testing"

	"gnn/internal/snapshot"
	"gnn/internal/snapshot/snapshottest"
)

// FuzzSnapshotDecode throws arbitrary bytes at the decoder: it must
// return a typed error or a fully valid snapshot — never panic, never
// over-allocate from forged counts — and anything it accepts must
// re-encode and decode again (the accepted subset is self-consistent).
func FuzzSnapshotDecode(f *testing.F) {
	var seeds [][]byte
	for _, n := range []int{0, 3, 120} {
		st := snapshottest.BuildArena(f, n, 2, 8, int64(n)+1)
		var buf bytes.Buffer
		m := snapshot.Manifest{Kind: snapshot.KindPlain, Dim: 2, Points: st.Size}
		if err := snapshot.Write(&buf, m, []*snapshot.Tree{st}); err != nil {
			f.Fatalf("seed write: %v", err)
		}
		valid := buf.Bytes()
		seeds = append(seeds, valid, valid[:len(valid)/2], corruptSeed(valid, 13), corruptSeed(valid, len(valid)-2))
	}
	seeds = append(seeds, []byte{}, []byte("GNNSNAP\x00"), []byte("not a snapshot"))
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, trees, err := snapshot.Decode(data)
		if err != nil {
			return
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

func corruptSeed(data []byte, off int) []byte {
	out := bytes.Clone(data)
	out[off] ^= 0xff
	return out
}

package snapshot_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gnn/internal/mmapfile"
	"gnn/internal/snapshot"
	"gnn/internal/snapshot/snapshottest"
)

func TestRoundTripPlain(t *testing.T) {
	for _, tc := range []struct{ n, dim, cap int }{
		{0, 2, 8},   // empty index
		{3, 2, 8},   // root-only leaf
		{500, 2, 8}, // three levels
		{200, 3, 16},
		{50, 1, 4},
	} {
		t.Run(fmt.Sprintf("n%d_d%d_c%d", tc.n, tc.dim, tc.cap), func(t *testing.T) {
			st := snapshottest.BuildArena(t, tc.n, tc.dim, tc.cap, 42)
			data := snapshottest.EncodePlain(t, st, tc.dim)
			for _, path := range decodePaths {
				m, trees, err := path.decode(data)
				if err != nil {
					t.Fatalf("%s: decode: %v", path.name, err)
				}
				if m.Kind != snapshot.KindPlain || m.Dim != tc.dim || m.Points != tc.n {
					t.Fatalf("%s: manifest %+v", path.name, m)
				}
				if len(trees) != 1 {
					t.Fatalf("%s: %d trees", path.name, len(trees))
				}
				if !reflect.DeepEqual(trees[0], st) {
					t.Fatalf("%s: arena did not round-trip:\n got %+v\nwant %+v", path.name, trees[0], st)
				}
				// Decoded → re-encoded bytes are identical: the format is
				// canonical, so snapshots are stable across save/load
				// cycles.
				again := snapshottest.EncodePlain(t, trees[0], tc.dim)
				if !bytes.Equal(data, again) {
					t.Fatalf("%s: re-encoded bytes differ (%d vs %d bytes)", path.name, len(data), len(again))
				}
			}
		})
	}
}

func TestRoundTripSharded(t *testing.T) {
	var trees []*snapshot.Tree
	var cuts []int64
	points := 0
	for i, n := range []int{120, 95, 121} {
		st := snapshottest.BuildArenaAt(t, n, 2, 8, int64(100+i), int64(10_000*i))
		trees = append(trees, st)
		cuts = append(cuts, int64(n))
		points += n
	}
	m := snapshot.Manifest{
		Kind: snapshot.KindSharded, Dim: 2, Points: points,
		Hilbert: &snapshot.Hilbert{Order: 16, Lo: [2]float64{0, 0}, Hi: [2]float64{1000, 1000}, CutSizes: cuts},
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, m, trees); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, path := range decodePaths {
		got, gotTrees, err := path.decode(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: decode: %v", path.name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: manifest:\n got %+v\nwant %+v", path.name, got, m)
		}
		if !reflect.DeepEqual(gotTrees, trees) {
			t.Fatalf("%s: trees did not round-trip", path.name)
		}
	}
}

// decodePaths are the decoder's two paths, each running every check:
// in place, on an aligned copy of the input, and the aligned copy a
// big-endian host decodes, forced on this host, where its host-order
// rewrite is an identity. So the copy path is checked for everything but
// the byte swap itself.
var decodePaths = []struct {
	name   string
	decode func([]byte) (snapshot.Manifest, []*snapshot.Tree, error)
}{
	{"in place", func(data []byte) (snapshot.Manifest, []*snapshot.Tree, error) {
		return decodeVia(true, mmapfile.AlignedCopy(data))
	}},
	{"copied", func(data []byte) (snapshot.Manifest, []*snapshot.Tree, error) {
		defer snapshot.SetAdoptInPlace(false)()
		return decodeVia(false, data)
	}},
}

// decodeVia is Decode, failing unless the decoder took the path asked
// for: in place (zeroCopy) or on a copy.
func decodeVia(zeroCopy bool, data []byte) (snapshot.Manifest, []*snapshot.Tree, error) {
	a, err := snapshot.DecodeAdopted(data)
	if err != nil {
		return snapshot.Manifest{}, nil, err
	}
	if a.ZeroCopy != zeroCopy {
		return snapshot.Manifest{}, nil, fmt.Errorf("decoded with ZeroCopy %v", a.ZeroCopy)
	}
	if err := a.Verify(); err != nil {
		return snapshot.Manifest{}, nil, err
	}
	return a.Manifest, a.Trees, nil
}

// TestDecodePathsCorruptionTable runs the whole corruption table through
// both decode paths: each must reject every case with its typed error,
// so the copy path checks everything the in-place one does, in the same
// order.
func TestDecodePathsCorruptionTable(t *testing.T) {
	for _, tc := range snapshottest.Table(t) {
		for _, path := range decodePaths {
			if _, _, err := path.decode(tc.Data); !errors.Is(err, tc.Want) {
				t.Errorf("%s, %s: error %v, want %v", tc.Name, path.name, err, tc.Want)
			}
		}
	}
}

func TestWriteRejectsBadInput(t *testing.T) {
	st := snapshottest.BuildArena(t, 20, 2, 8, 1)
	var buf bytes.Buffer
	for name, tc := range map[string]struct {
		m     snapshot.Manifest
		trees []*snapshot.Tree
	}{
		"zero dim":          {snapshot.Manifest{Kind: snapshot.KindPlain, Dim: 0, Points: 20}, []*snapshot.Tree{st}},
		"plain two trees":   {snapshot.Manifest{Kind: snapshot.KindPlain, Dim: 2, Points: 40}, []*snapshot.Tree{st, st}},
		"bad kind":          {snapshot.Manifest{Kind: snapshot.Kind(7), Dim: 2, Points: 20}, []*snapshot.Tree{st}},
		"point mismatch":    {snapshot.Manifest{Kind: snapshot.KindPlain, Dim: 2, Points: 19}, []*snapshot.Tree{st}},
		"sharded no cuts":   {snapshot.Manifest{Kind: snapshot.KindSharded, Dim: 2, Points: 20}, []*snapshot.Tree{st}},
		"dim/axis mismatch": {snapshot.Manifest{Kind: snapshot.KindPlain, Dim: 3, Points: 20}, []*snapshot.Tree{st}},
	} {
		if err := snapshot.Write(&buf, tc.m, tc.trees); err == nil {
			t.Errorf("%s: Write accepted bad input", name)
		}
	}
}

func TestDecodeCorruptHeader(t *testing.T) {
	valid := snapshottest.EncodePlain(t, snapshottest.BuildArena(t, 300, 2, 8, 7), 2)
	if _, _, err := snapshot.Decode(valid); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for _, tc := range snapshottest.HeaderCases(t) {
		t.Run(tc.Name, func(t *testing.T) {
			_, _, err := snapshot.Decode(tc.Data)
			if err == nil {
				t.Fatalf("decode accepted corrupt input")
			}
			if !errors.Is(err, tc.Want) {
				t.Fatalf("error %v, want %v", err, tc.Want)
			}
		})
	}

	// Every truncation length must fail with a typed error, never panic.
	for cut := 0; cut < len(valid); cut += 97 {
		_, _, err := snapshot.Decode(valid[:cut:cut])
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDecodeCorruptStructure feeds structurally invalid — but correctly
// framed and checksummed — contents through a mutate-and-re-encode
// cycle, so the structural validator (not the CRC) must catch them.
func TestDecodeCorruptStructure(t *testing.T) {
	for _, tc := range snapshottest.StructureCases(t) {
		t.Run(tc.Name, func(t *testing.T) {
			if tc.Data == nil {
				t.Skipf("writer already rejects: %v", tc.Want)
			}
			_, _, err := snapshot.Decode(tc.Data)
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("error %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestDecodeRejectsHugeDim locks the MaxDim bound that keeps the
// decoder's length arithmetic overflow-free: a forged header dimension
// must fail as corrupt before any section is interpreted.
func TestDecodeRejectsHugeDim(t *testing.T) {
	for _, tc := range snapshottest.HugeDimCases(t) {
		if _, _, err := snapshot.Decode(tc.Data); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("%s: error %v, want ErrCorrupt", tc.Name, err)
		}
	}
}

// TestDecodeRejectsOverlappingShardPages: trees sharing page IDs would
// corrupt the shared LRU accounting, so the decoder must reject them.
func TestDecodeRejectsOverlappingShardPages(t *testing.T) {
	tc := snapshottest.OverlappingShardPages(t)
	if _, _, err := snapshot.Decode(tc.Data); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt for overlapping shard page ranges", err)
	}
}

func TestSniff(t *testing.T) {
	st := snapshottest.BuildArena(t, 30, 2, 8, 1)
	plain := snapshottest.EncodePlain(t, st, 2)
	if !snapshot.Sniff(plain[:snapshot.SniffLen]) {
		t.Fatal("plain snapshot not sniffed as one")
	}
	if snapshot.Sniff(plain[:snapshot.SniffLen-1]) {
		t.Fatal("short head sniffed as snapshot")
	}
	if snapshot.Sniff([]byte("not a snapshot, longer than 16b")) {
		t.Fatal("garbage sniffed as snapshot")
	}
}

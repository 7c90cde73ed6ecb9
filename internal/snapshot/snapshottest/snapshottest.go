// Package snapshottest holds the snapshot decoder's corruption table: the
// corrupt inputs every validating reader of snapshot bytes must reject,
// each with the typed error it must return. The decoder's own tests and
// the compactor's rotate-verify both run the same table, so a check
// dropped from either path fails a case.
package snapshottest

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strconv"
	"testing"

	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/snapshot"
)

// Case is one corrupt snapshot and the typed error (matched with
// errors.Is) a validating decoder must return for it.
type Case struct {
	Name string
	Data []byte
	Want error
}

// BuildArena packs a bulk-loaded tree over n pseudo-random points and
// returns its serialisable arena. Using the real tree keeps the fixtures
// structurally honest (multi-level, partially filled final nodes).
func BuildArena(tb testing.TB, n, dim, cap int, seed int64) *snapshot.Tree {
	return BuildArenaAt(tb, n, dim, cap, seed, 0)
}

// BuildArenaAt builds the arena with its page IDs offset to firstPage
// (sharded fixtures need disjoint per-tree page ranges, like the real
// partitioned builder assigns).
func BuildArenaAt(tb testing.TB, n, dim, cap int, seed, firstPage int64) *snapshot.Tree {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, n*dim)
	for i := range coords {
		coords[i] = rng.Float64() * 1000
	}
	p, err := rtree.PackSTR(rtree.Config{Dim: dim, MaxEntries: cap, FirstPage: pagestore.PageID(firstPage)}, coords, nil)
	if err != nil {
		tb.Fatalf("bulk load: %v", err)
	}
	return p.Snapshot()
}

// EncodePlain serialises a single arena as a plain snapshot.
func EncodePlain(tb testing.TB, st *snapshot.Tree, dim int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	m := snapshot.Manifest{Kind: snapshot.KindPlain, Dim: dim, Points: st.Size}
	if err := snapshot.Write(&buf, m, []*snapshot.Tree{st}); err != nil {
		tb.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// corrupt returns a copy of data with the byte at off XORed.
func corrupt(data []byte, off int) []byte {
	out := bytes.Clone(data)
	out[off] ^= 0x5a
	return out
}

// zeroField zeroes the uint32 at off (corrupting values a bit-flip of a
// small integer would not reach).
func zeroField(data []byte, off int) []byte {
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[off:], 0)
	return out
}

// HeaderCases returns corruptions of a valid plain snapshot's frame:
// header, section table, payload bytes and length.
func HeaderCases(tb testing.TB) []Case {
	valid := EncodePlain(tb, BuildArena(tb, 300, 2, 8, 7), 2)
	const headerSize = 40
	return []Case{
		{"empty", nil, snapshot.ErrTruncated},
		{"just magic", valid[:8:8], snapshot.ErrTruncated},
		{"half header", valid[:20:20], snapshot.ErrTruncated},
		{"bad magic", corrupt(valid, 0), snapshot.ErrBadMagic},
		{"bad magic tail", corrupt(valid, 7), snapshot.ErrBadMagic},
		{"future version", corrupt(valid, 8), snapshot.ErrVersion},
		{"bad kind", corrupt(valid, 12), snapshot.ErrCorrupt},
		{"zero dim", zeroField(valid, 16), snapshot.ErrCorrupt},
		{"zero trees", zeroField(valid, 20), snapshot.ErrCorrupt},
		{"section count", corrupt(valid, 32), snapshot.ErrCorrupt},
		{"table truncated", valid[: headerSize+10 : headerSize+10], snapshot.ErrTruncated},
		{"section offset", corrupt(valid, headerSize+8), snapshot.ErrCorrupt},
		{"section crc field", corrupt(valid, headerSize+24), snapshot.ErrChecksum},
		{"payload flipped", corrupt(valid, len(valid)-3), snapshot.ErrChecksum},
		{"payload truncated", valid[: len(valid)-5 : len(valid)-5], snapshot.ErrTruncated},
		{"trailing garbage", append(bytes.Clone(valid), 0xff), snapshot.ErrCorrupt},
	}
}

// structureMutations are structurally invalid — but correctly framed
// and checksummed — tree contents, so the structural validator (not the
// CRC) must catch them.
var structureMutations = map[string]func(st *snapshot.Tree){
	"root out of range":  func(st *snapshot.Tree) { st.Root = int32(len(st.Level)) },
	"child out of range": func(st *snapshot.Tree) { st.Child[0] = int32(len(st.Level)) },
	"child cycle":        func(st *snapshot.Tree) { st.Child[0] = st.Root },
	"child level":        func(st *snapshot.Tree) { st.Level[st.Child[0]] = st.Level[st.Root] },
	"negative start":     func(st *snapshot.Tree) { st.Start[0] = -1 },
	"inverted range":     func(st *snapshot.Tree) { st.Start[0], st.End[0] = st.End[0], st.Start[0] },
	"height mismatch":    func(st *snapshot.Tree) { st.Height++ },
	"duplicate page":     func(st *snapshot.Tree) { st.Page[1] = st.Page[0] },
	"negative page":      func(st *snapshot.Tree) { st.Page[0] = -4 },
	"page out of range":  func(st *snapshot.Tree) { st.Page[0] = st.FirstPage + st.Pages + 5 },
	"tiny capacity":      func(st *snapshot.Tree) { st.MaxEntries = 2 },
	"pages undercount":   func(st *snapshot.Tree) { st.Pages = 0 },
	"overlapping leaves": func(st *snapshot.Tree) {
		// Make the second leaf claim the first leaf's slot range: the
		// totals still fit, only the partition property breaks.
		var leaves []int
		for n, lvl := range st.Level {
			if lvl == 0 {
				leaves = append(leaves, n)
			}
		}
		a, b := leaves[0], leaves[1]
		st.Start[b], st.End[b] = st.Start[a], st.End[a]
	},
}

// StructureCases returns one re-encoded snapshot per structural mutation,
// each wanting ErrCorrupt. A mutation the writer already refuses yields a
// case with nil Data and a Want of the writer's error, for the caller to
// skip.
func StructureCases(tb testing.TB) []Case {
	var cases []Case
	for name, mutate := range structureMutations {
		// A fresh arena per case: mutations write through the packed
		// tree's borrowed slices.
		st := BuildArena(tb, 300, 2, 8, 7)
		mutate(st)
		var buf bytes.Buffer
		m := snapshot.Manifest{Kind: snapshot.KindPlain, Dim: 2, Points: st.Size}
		if err := snapshot.Write(&buf, m, []*snapshot.Tree{st}); err != nil {
			cases = append(cases, Case{Name: name, Want: err})
			continue
		}
		cases = append(cases, Case{Name: name, Data: buf.Bytes(), Want: snapshot.ErrCorrupt})
	}
	return cases
}

// HugeDimCases returns valid snapshots whose header dimension is forged
// beyond snapshot.MaxDim: the bound that keeps the decoder's length
// arithmetic overflow-free, so each must fail as corrupt before any
// section is interpreted.
func HugeDimCases(tb testing.TB) []Case {
	valid := EncodePlain(tb, BuildArena(tb, 50, 2, 8, 3), 2)
	var cases []Case
	for _, dim := range []uint32{snapshot.MaxDim + 1, 1 << 30, ^uint32(0)} {
		data := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(data[16:], dim)
		cases = append(cases, Case{Name: "dim " + strconv.FormatUint(uint64(dim), 10), Data: data, Want: snapshot.ErrCorrupt})
	}
	return cases
}

// OverlappingShardPages returns a sharded snapshot whose two trees share
// page IDs: they would corrupt the shared LRU accounting, so it must
// fail as corrupt.
func OverlappingShardPages(tb testing.TB) Case {
	t1 := BuildArenaAt(tb, 80, 2, 8, 1, 0)
	t2 := BuildArenaAt(tb, 80, 2, 8, 2, 0) // same page range as t1
	m := snapshot.Manifest{
		Kind: snapshot.KindSharded, Dim: 2, Points: 160,
		Hilbert: &snapshot.Hilbert{Order: 16, CutSizes: []int64{80, 80}},
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, m, []*snapshot.Tree{t1, t2}); err != nil {
		tb.Fatalf("write: %v", err)
	}
	return Case{Name: "overlapping shard pages", Data: buf.Bytes(), Want: snapshot.ErrCorrupt}
}

// Table returns every case above: frame corruptions, structural
// mutations (those the writer refuses are left out), forged dimensions
// and overlapping shard pages.
func Table(tb testing.TB) []Case {
	cases := HeaderCases(tb)
	for _, c := range StructureCases(tb) {
		if c.Data != nil {
			cases = append(cases, c)
		}
	}
	cases = append(cases, HugeDimCases(tb)...)
	return append(cases, OverlappingShardPages(tb))
}

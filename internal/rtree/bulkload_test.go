package rtree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gnn/internal/dataset"
	"gnn/internal/geom"
	"gnn/internal/hilbert"
	"gnn/internal/pagestore"
)

// bulkLoadSTR copies pts into columns and STR-packs them.
func bulkLoadSTR(cfg Config, pts []geom.Point, ids []int64) (*Packed, error) {
	cols, err := Columns(cfg, pts)
	if err != nil {
		return nil, err
	}
	return PackSTR(cfg, cols, slices.Clone(ids))
}

func TestBulkLoadSTR(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pts := randPoints(rng, 3000, 1000)
	tr, err := bulkLoadSTR(Config{MaxEntries: 10}, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Bulk-loaded trees must answer NN exactly like brute force.
	for trial := 0; trial < 30; trial++ {
		q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		want := bruteKNN(pts, q, 3)
		got := tr.Reader(nil).NearestBF(q, 3)
		for i := range got {
			if !almostEq(got[i].Dist, want[i]) {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, got[i].Dist, want[i])
			}
		}
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	tr, err := bulkLoadSTR(Config{}, nil, nil)
	if err != nil || tr.Len() != 0 {
		t.Fatalf("empty bulk load: %v, len %d", err, tr.Len())
	}
	if err := tr.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{{1, 1}, {2, 2}}
	tr, err = bulkLoadSTR(Config{}, pts, []int64{7, 8})
	if err != nil || tr.Len() != 2 || tr.Height() != 1 {
		t.Fatalf("tiny bulk load: %v len %d h %d", err, tr.Len(), tr.Height())
	}
	nn := tr.Reader(nil).NearestBF(geom.Point{0, 0}, 1)
	if nn[0].ID != 7 {
		t.Fatalf("NN id = %d", nn[0].ID)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	if _, err := bulkLoadSTR(Config{}, []geom.Point{{1, 2}}, []int64{1, 2}); err == nil {
		t.Fatal("mismatched ids accepted")
	}
	if _, err := bulkLoadSTR(Config{Dim: 3}, []geom.Point{{1, 2}}, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestBulkLoadSizesProperty(t *testing.T) {
	// Any size must produce a structurally valid tree with all points.
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%1200) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, n, 500)
		tr, err := bulkLoadSTR(Config{MaxEntries: 8}, pts, nil)
		return err == nil && tr.Len() == n && len(tr.IDs()) == n && tr.Tree().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// referenceSTR is the specification PackSTR must reproduce node for
// node, written the plain way: a stable sort of the leaf entries on each
// axis, one allocation per node, and node MBRs built by Rect.Union
// chains (mbrOf).
func referenceSTR(cfg Config, pts []geom.Point, ids []int64) (*refTree, error) {
	return referenceLoad(cfg, pts, ids, func(t *refTree, entries []entry) {
		M := t.cfg.MaxEntries
		nLeaves := (len(entries) + M - 1) / M
		perSlab := int(math.Ceil(math.Sqrt(float64(nLeaves)))) * M
		cmpAxis := func(axis int) func(a, b entry) int {
			return func(a, b entry) int {
				switch {
				case a.Point[axis] < b.Point[axis]:
					return -1
				case a.Point[axis] > b.Point[axis]:
					return 1
				default:
					return 0
				}
			}
		}
		slices.SortStableFunc(entries, cmpAxis(0))
		for lo := 0; lo < len(entries); lo += perSlab {
			if t.cfg.Dim >= 2 {
				slices.SortStableFunc(entries[lo:min(lo+perSlab, len(entries))], cmpAxis(1))
			}
		}
	})
}

// hilbertSortEntries stably sorts the non-empty leaf entries into the
// Hilbert order of the curve fitted to their mbrOf bounds.
func hilbertSortEntries(dim int, entries []entry) {
	r := mbrOf(entries)
	hiX, hiY := r.Hi[0], r.Lo[0]
	loX, loY := r.Lo[0], r.Lo[0]
	if dim >= 2 {
		loY, hiY = r.Lo[1], r.Hi[1]
	}
	m := hilbert.NewMapper(hilbert.DefaultOrder, loX, loY, hiX, hiY)
	value := func(e entry) uint64 {
		y := 0.0
		if dim >= 2 {
			y = e.Point[1]
		}
		return m.Value(e.Point[0], y)
	}
	slices.SortStableFunc(entries, func(a, b entry) int { return cmp.Compare(value(a), value(b)) })
}

// referencePartitioned is the specification of PackSTRPartitioned:
// the entries in Hilbert order (hilbertSortEntries), cut into parts
// near-equal runs, each loaded by referenceSTR on the next free pages.
func referencePartitioned(cfg Config, pts []geom.Point, ids []int64, parts int) ([]*refTree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	entries := make([]entry, len(pts))
	for i, p := range pts {
		entries[i] = entry{Point: p, ID: int64(i)}
		if ids != nil {
			entries[i].ID = ids[i]
		}
	}
	if len(entries) > 0 {
		for i := range entries {
			entries[i].Rect = geom.NewRect(entries[i].Point, entries[i].Point)
		}
		hilbertSortEntries(cfg.Dim, entries)
	}
	var trees []*refTree
	n := len(entries)
	for s := 0; s < parts; s++ {
		chunk := entries[n*s/parts : n*(s+1)/parts]
		cpts := make([]geom.Point, len(chunk))
		cids := make([]int64, len(chunk))
		for i, e := range chunk {
			cpts[i], cids[i] = e.Point, e.ID
		}
		t, err := referenceSTR(cfg, cpts, cids)
		if err != nil {
			return nil, err
		}
		cfg.FirstPage += pagestore.PageID(t.pages())
		trees = append(trees, t)
	}
	return trees, nil
}

// referenceLoad is the packing both reference loaders share: one cloned
// leaf entry per point, ordered in place by order, then packed level by
// level with one allocation per node.
func referenceLoad(cfg Config, pts []geom.Point, ids []int64, order func(*refTree, []entry)) (*refTree, error) {
	t, err := newRefTree(cfg)
	if err != nil {
		return nil, err
	}
	if ids == nil {
		ids = make([]int64, len(pts))
		for i := range ids {
			ids[i] = int64(i)
		}
	}
	t.size = len(pts)
	if t.size == 0 {
		return t, nil
	}
	entries := make([]entry, len(pts))
	for i, p := range pts {
		entries[i] = entry{Rect: geom.NewRect(p, p), Point: p.Clone(), ID: ids[i]}
	}
	order(t, entries)

	M, m := t.cfg.MaxEntries, t.cfg.MinEntries
	level := 0
	for len(entries) > M {
		var nodes []entry
		for lo := 0; lo < len(entries); {
			hi := lo + M
			if rem := len(entries) - hi; rem > 0 && rem < m {
				hi = len(entries) - m
			}
			hi = min(hi, len(entries))
			n := t.newNode(level)
			n.entries = append(n.entries, entries[lo:hi]...)
			nodes = append(nodes, entry{Rect: mbrOf(n.entries), child: n})
			lo = hi
		}
		entries = nodes
		level++
	}
	root := t.newNode(level)
	root.entries = append(root.entries, entries...)
	t.root = root
	t.height = level + 1
	return t, nil
}

func sameBits(a, b geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstReference packs pts with PackSTR, builds referenceSTR, and
// fails on the first difference between the arena and the reference
// tree's pack (see checkPacked).
func checkAgainstReference(t *testing.T, label string, cfg Config, pts []geom.Point, ids []int64) {
	t.Helper()
	label = "STR/" + label
	want, err := referenceSTR(cfg, pts, ids)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	coords, err := Columns(cfg, pts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	p, err := PackSTR(cfg, coords, slices.Clone(ids)) // the packer reorders ids in place
	if err != nil {
		t.Fatalf("%s: pack: %v", label, err)
	}
	if err := checkPacked(p, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// checkPacked compares an arena a loader packed with the reference tree
// it must match: the arena column for column against want.pack(), then
// its shell — same page range and bounds — and the arena's invariants.
func checkPacked(p *Packed, want *refTree) error {
	if err := diffArenas(p, want.pack()); err != nil {
		return err
	}
	tr := p.Tree()
	if !p.Valid(tr) {
		return fmt.Errorf("arena not valid for its own shell")
	}
	gb, gok := tr.Bounds()
	wb, wok := want.bounds()
	if tr.size != want.size || tr.nextPage != want.nextPage ||
		gok != wok || (wok && (!sameBits(gb.Lo, wb.Lo) || !sameBits(gb.Hi, wb.Hi))) {
		return fmt.Errorf("shell size/nextPage/bounds %d/%d/%v, want %d/%d/%v",
			tr.size, tr.nextPage, gb, want.size, want.nextPage, wb)
	}
	return tr.CheckInvariants()
}

// diffArenas returns the first difference between two packed arenas,
// column by column: node levels, pages and slot ranges, routing children
// and the bit patterns of their rectangles, leaf coordinates and ids,
// then root, height, size and dimension.
func diffArenas(got, want *Packed) error {
	for _, c := range []struct {
		name string
		g, w []int32
	}{
		{"level", got.level, want.level},
		{"start", got.start, want.start},
		{"end", got.end, want.end},
		{"child", got.child, want.child},
	} {
		if !slices.Equal(c.g, c.w) {
			return fmt.Errorf("arena %s column %v, want %v", c.name, c.g, c.w)
		}
	}
	if !slices.Equal(got.page, want.page) {
		return fmt.Errorf("arena pages %v, want %v", got.page, want.page)
	}
	if !slices.Equal(got.ids, want.ids) {
		return fmt.Errorf("arena ids %v, want %v", got.ids, want.ids)
	}
	if len(got.pc) != len(want.pc) || len(got.rlo) != len(want.rlo) || len(got.rhi) != len(want.rhi) {
		return fmt.Errorf("arena axes %d/%d/%d, want %d", len(got.pc), len(got.rlo), len(got.rhi), len(want.pc))
	}
	for a := range want.pc {
		for _, c := range []struct {
			name string
			g, w []float64
		}{{"rlo", got.rlo[a], want.rlo[a]}, {"rhi", got.rhi[a], want.rhi[a]}, {"pc", got.pc[a], want.pc[a]}} {
			if !sameBits(c.g, c.w) {
				return fmt.Errorf("arena %s[%d] %v, want %v", c.name, a, c.g, c.w)
			}
		}
	}
	if got.root != want.root || got.height != want.height || got.size != want.size || got.dim != want.dim {
		return fmt.Errorf("arena root/height/size/dim %d/%d/%d/%d, want %d/%d/%d/%d",
			got.root, got.height, got.size, got.dim, want.root, want.height, want.size, want.dim)
	}
	return nil
}

// checkPartitioned compares the PackSTRPartitioned arenas against
// referencePartitioned, shard by shard.
func checkPartitioned(t *testing.T, label string, cfg Config, pts []geom.Point, ids []int64, parts int) {
	t.Helper()
	label = fmt.Sprintf("Partitioned%d/%s", parts, label)
	want, err := referencePartitioned(cfg, pts, ids, parts)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	coords, err := Columns(cfg, pts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ps, err := PackSTRPartitioned(cfg, coords, slices.Clone(ids), parts)
	if err != nil || len(ps) != parts {
		t.Fatalf("%s: %d arenas, err %v", label, len(ps), err)
	}
	for i, p := range ps {
		if err := checkPacked(p, want[i]); err != nil {
			t.Fatalf("%s: shard %d: %v", label, i, err)
		}
	}
}

var negZero = math.Copysign(0, -1)

// refGenerators produce coordinate streams that stress the sort's tie
// handling: continuous values, coordinates in {0, 1, 2} (each tied with
// a third of the input), and a mix of -0, +0 and ±1.
var refGenerators = []struct {
	name  string
	coord func(rng *rand.Rand) float64
}{
	{"uniform", func(rng *rand.Rand) float64 { return rng.Float64()*200 - 100 }},
	{"grid3", func(rng *rand.Rand) float64 { return float64(rng.Intn(3)) }},
	{"signed-zero", func(rng *rand.Rand) float64 {
		return [...]float64{negZero, 0, negZero, 0, 1, -1}[rng.Intn(6)]
	}},
}

func genPoints(rng *rand.Rand, n, dim int, coord func(*rand.Rand) float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = make(geom.Point, dim)
		for a := range pts[i] {
			pts[i][a] = coord(rng)
		}
	}
	return pts
}

func TestBulkLoadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfgs := []Config{
		{MaxEntries: 4, MinEntries: 2},
		{MaxEntries: 5, MinEntries: 1},
		{MaxEntries: 8},
		{MaxEntries: 9, MinEntries: 4},
		{FirstPage: 1000}, // the default M = 50, m = 20
	}
	for dim := 1; dim <= 3; dim++ {
		for _, cfg := range cfgs {
			cfg.Dim = dim
			c, err := cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			M, m := c.MaxEntries, c.MinEntries
			sizes := []int{
				0, 1, M, M + 1,
				3*M + m - 1,   // last leaf borrows from its predecessor
				M*(M+1) + 1,   // M+2 leaves, so the level above borrows when m > 2
				2*M*M + M - 1, // several slabs, a short final slab
			}
			for _, n := range sizes {
				for _, g := range refGenerators {
					pts := genPoints(rng, n, dim, g.coord)
					ids := make([]int64, n)
					for i := range ids {
						ids[i] = int64(n - i) // not the point index
					}
					label := fmt.Sprintf("dim%d/M%d/m%d/n%d/%s", dim, M, m, n, g.name)
					checkAgainstReference(t, label, cfg, pts, ids)
					checkPartitioned(t, label, cfg, pts, ids, 1+n%5)
				}
			}
		}
	}
	for _, g := range refGenerators {
		pts := genPoints(rng, 10000, 2, g.coord)
		checkAgainstReference(t, "10k/"+g.name, Config{}, pts, nil)
		checkPartitioned(t, "10k/"+g.name, Config{}, pts, nil, 4)
	}
}

// fuzzPalette holds the coordinates one fuzz byte selects: signed zeros,
// small integers (dense ties), and extremes of magnitude — the largest
// the loaders accept, ±maxCoord.
var fuzzPalette = [15]float64{negZero, 0, 1, -1, 2, -2, 0.5, -0.5, 3, 1e-300, -1e-300, maxCoord, -maxCoord, 7, 1}

// fuzzPoints decodes dim-dimensional points from data: a byte below 0xF0
// picks a palette entry; 0xF0 and above reads the next 8 bytes as raw
// float64 bits (patterns no loader accepts — NaN, infinite or beyond
// ±maxCoord — become 0).
func fuzzPoints(data []byte, dim int) []geom.Point {
	var coords []float64
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		if b < 0xF0 || len(data) < 8 {
			coords = append(coords, fuzzPalette[int(b)%len(fuzzPalette)])
			continue
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if !inRange(v) {
			v = 0
		}
		coords = append(coords, v)
	}
	pts := make([]geom.Point, len(coords)/dim)
	for i := range pts {
		pts[i] = coords[i*dim : (i+1)*dim]
	}
	return pts
}

// FuzzBulkLoadSTR checks the STR loader against referenceSTR — the packed
// arena column for column — on fuzzed point sets, dimensions 1–3, and
// node capacities 4–16 with every legal minimum fill; the partitioned
// loader is checked the same way on the same input. The seed corpus lives in
// testdata/fuzz/FuzzBulkLoadSTR and replays in every plain go test run.
func FuzzBulkLoadSTR(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 2, 1, 0, 0, 0, 3, 3}, uint8(2), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, dim, maxE, minE uint8) {
		d := int(dim%3) + 1
		M := int(maxE%13) + 4
		cfg := Config{Dim: d, MaxEntries: M, MinEntries: int(minE) % (M/2 + 1)} // 0 = default fill
		pts := fuzzPoints(data, d)
		checkAgainstReference(t, "fuzz", cfg, pts, nil)
		checkPartitioned(t, "fuzz", cfg, pts, nil, 1+len(data)%4)
	})
}

func TestBulkLoadRejectsNonFinite(t *testing.T) {
	// The packers get the points as columns nothing has checked: their
	// own check must reject them.
	loaders := map[string]func(Config, []float64) error{
		"STR": func(cfg Config, coords []float64) error {
			_, err := PackSTR(cfg, coords, nil)
			return err
		},
		"Partitioned": func(cfg Config, coords []float64) error {
			_, err := PackSTRPartitioned(cfg, coords, nil, 3)
			return err
		},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Nextafter(maxCoord, math.Inf(1)), -1e200} {
		for axis := 0; axis < 2; axis++ {
			pts := randPoints(rand.New(rand.NewSource(24)), 200, 100)
			pts[137] = geom.Point{5, 5}
			pts[137][axis] = bad
			coords, err := Columns(Config{}, pts)
			if err != nil {
				t.Fatal(err)
			}
			for name, load := range loaders {
				err := load(Config{MaxEntries: 8}, slices.Clone(coords))
				var nf *NonFiniteError
				if !errors.As(err, &nf) || nf.Index != 137 || nf.Axis != axis {
					t.Errorf("%s with %v on axis %d: err %v, want NonFiniteError at point 137 axis %d",
						name, bad, axis, err, axis)
				}
			}
		}
	}
}

// BenchmarkPackTS loads the 194,971 points of TS from their columns,
// plain (PackSTR) and cut into four Hilbert shards (PackSTRPartitioned):
// the loader alone, without the copy of the caller's points that the
// root package's BenchmarkIndexBuild also times.
func BenchmarkPackTS(b *testing.B) {
	src, err := Columns(Config{}, dataset.GenerateTS(1).Points)
	if err != nil {
		b.Fatal(err)
	}
	cols := make([]float64, len(src))
	for _, c := range []struct {
		name string
		load func([]float64) error
	}{
		{"STR", func(cols []float64) error { _, err := PackSTR(Config{}, cols, nil); return err }},
		{"Partitioned4", func(cols []float64) error { _, err := PackSTRPartitioned(Config{}, cols, nil, 4); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				copy(cols, src)
				if err := c.load(cols); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBulkLoadAllocsFlat pins the loader's allocation count: a fixed
// number per build plus a few per tree level, never one per point.
func TestBulkLoadAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	allocs := func(n int) (float64, int) {
		pts := randPoints(rng, n, 1000)
		tr, err := bulkLoadSTR(Config{}, pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { bulkLoadSTR(Config{}, pts, nil) }), tr.Height()
	}
	small, hSmall := allocs(2000)
	large, hLarge := allocs(20000)
	// Each level above the leaves may add up to three allocations.
	if large > small+3*float64(hLarge-hSmall) {
		t.Fatalf("PackSTR allocations grow with n: %v at 2k points (height %d), %v at 20k (height %d)",
			small, hSmall, large, hLarge)
	}
}

package rtree

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"gnn/internal/geom"
)

// randTree inserts n random points into an R*-tree builder.
func randTree(t *testing.T, rng *rand.Rand, n, maxEntries int) *Tree {
	t.Helper()
	tr, err := New(Config{Dim: 2, MaxEntries: maxEntries})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestPackIndependentOfBuilder: Pack snapshots the builder into an arena
// with its own immutable shell; later builder mutations leave the arena
// (and its answers and invariants) untouched.
func TestPackIndependentOfBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randTree(t, rng, 800, 8)
	p := tr.Pack()
	if p.Valid(tr) || !p.Valid(p.Tree()) {
		t.Fatal("the arena must belong to its shell, not to the builder")
	}
	q := geom.Point{500, 500}
	before := p.Reader(nil).NearestBF(q, 5)
	if err := tr.Insert(q, 9999); err != nil {
		t.Fatal(err)
	}
	if got := p.Reader(nil).NearestBF(q, 5); !reflect.DeepEqual(got, before) {
		t.Fatalf("builder insert leaked into the arena: %v, was %v", got, before)
	}
	if got := tr.Pack().Reader(nil).NearestBF(q, 1); got[0].ID != 9999 {
		t.Fatalf("a fresh Pack missed the insert: %v", got)
	}
	sh := p.Tree()
	if err := sh.Insert(q, 1); !errors.Is(err, ErrImmutable) {
		t.Fatalf("shell Insert: %v, want ErrImmutable", err)
	}
	if sh.Delete(before[0].Point, before[0].ID) {
		t.Fatal("shell Delete reported true")
	}
	if err := sh.CheckInvariants(); err != nil || sh.Len() != 800 {
		t.Fatalf("shell after builder insert: len %d, invariants %v", sh.Len(), err)
	}
}

// TestShellCheckInvariants: a shell's CheckInvariants walks the arena and
// reports every corruption a node walk of the builder would: a routing
// rectangle that is not its child's exact MBR, a fill violation, a level
// skip, a size mismatch, a wrong height, and a child id outside the
// arena — each as an error, never a panic.
func TestShellCheckInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, 600)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	fresh := func() *Packed {
		p, err := bulkLoadSTR(Config{MaxEntries: 8}, pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Tree().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, corrupt := range map[string]func(p *Packed){
		"widened rect":  func(p *Packed) { p.rlo[0][0] -= 1 },
		"shrunk rect":   func(p *Packed) { p.rhi[1][len(p.child)-1] -= 1e-9 },
		"moved point":   func(p *Packed) { p.pc[0][0] -= 5000 },
		"overflow":      func(p *Packed) { p.src.cfg.MaxEntries = 6 },
		"underflow":     func(p *Packed) { p.src.cfg.MinEntries = 8 },
		"root overrun":  func(p *Packed) { p.end[p.root] = p.start[p.root] + 9 },
		"level skip":    func(p *Packed) { p.level[p.child[p.start[p.root]]]-- },
		"size":          func(p *Packed) { p.size++ },
		"height":        func(p *Packed) { p.height++ },
		"child id":      func(p *Packed) { p.child[0] = int32(len(p.level)) },
		"shared child":  func(p *Packed) { p.child[p.start[p.root]+1] = p.child[p.start[p.root]] },
		"slot range":    func(p *Packed) { p.end[p.root] = int32(len(p.child)) + 1 },
		"inverted root": func(p *Packed) { p.root = -1 },
	} {
		p := fresh()
		corrupt(p)
		if err := p.Tree().CheckInvariants(); err == nil {
			t.Errorf("%s: corrupted arena passed CheckInvariants", name)
		}
	}
}

// TestPackedShape spot-checks the arena invariants: ranges partition the
// slot spaces, levels decrease by one per child hop, pages match the
// source nodes.
func TestPackedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randTree(t, rng, 1500, 10)
	p := tr.Pack()
	var walk func(n int32, level int32)
	seenLeaf := 0
	walk = func(n int32, level int32) {
		if p.level[n] != level {
			t.Fatalf("node %d level %d, expected %d", n, p.level[n], level)
		}
		s, e := p.NodeRange(n)
		if s > e {
			t.Fatalf("node %d empty-inverted range [%d,%d)", n, s, e)
		}
		if p.IsLeaf(n) {
			seenLeaf += int(e - s)
			return
		}
		for i := s; i < e; i++ {
			walk(p.ChildOf(i), level-1)
		}
	}
	walk(p.Root(), int32(tr.Height()-1))
	if seenLeaf != tr.Len() {
		t.Fatalf("%d leaf slots reachable, want %d", seenLeaf, tr.Len())
	}
	if p.NumLeafSlots() != tr.Len() {
		t.Fatalf("NumLeafSlots %d, want %d", p.NumLeafSlots(), tr.Len())
	}
	// Pages must be preserved — same id space as the builder's nodes.
	if p.page[p.Root()] != tr.root.page {
		t.Fatalf("root page %d, want %d", p.page[p.Root()], tr.root.page)
	}
	// RectInto must reproduce the routing rectangles bit for bit.
	var dst geom.Rect
	rootS, rootE := p.NodeRange(p.Root())
	if !p.IsLeaf(p.Root()) {
		for i := rootS; i < rootE; i++ {
			p.RectInto(i, &dst)
			if !dst.Equal(tr.root.entries[i-rootS].Rect) {
				t.Fatalf("RectInto slot %d mismatch", i)
			}
		}
	}
}

package rtree

import (
	"math/rand"
	"testing"

	"gnn/internal/geom"
)

// TestShellCheckInvariants: a shell's CheckInvariants walks the arena and
// reports every corruption: a routing rectangle that is not its child's
// exact MBR, a fill violation, a level skip, a size mismatch, a wrong
// height, and a child id outside the arena — each as an error, never a
// panic.
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
// slot spaces, levels decrease by one per child hop, and pages and
// routing rectangles (read back through RectInto) match the nodes of the
// reference tree the arena lays out.
func TestPackedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 1500, 1000)
	cfg := Config{MaxEntries: 10}
	p := mustPack(t, cfg, pts)
	ref, err := referenceSTR(cfg, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
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
			walk(p.child[i], level-1)
		}
	}
	walk(p.root, int32(p.Height()-1))
	if seenLeaf != p.Len() {
		t.Fatalf("%d leaf slots reachable, want %d", seenLeaf, p.Len())
	}
	if p.NumLeafSlots() != p.Len() {
		t.Fatalf("NumLeafSlots %d, want %d", p.NumLeafSlots(), p.Len())
	}
	// Pages must be the reference's — same id space as its nodes.
	if p.page[p.root] != ref.root.page {
		t.Fatalf("root page %d, want %d", p.page[p.root], ref.root.page)
	}
	// RectInto must reproduce the routing rectangles bit for bit.
	var dst geom.Rect
	rootS, rootE := p.NodeRange(p.root)
	if p.IsLeaf(p.root) {
		t.Fatal("1500 points at M = 10 packed into a single leaf")
	}
	for i := rootS; i < rootE; i++ {
		p.RectInto(i, &dst)
		if !rectEqual(dst, ref.root.entries[i-rootS].Rect) {
			t.Fatalf("RectInto slot %d mismatch", i)
		}
	}
}

// rectEqual reports whether r and s have identical corners.
func rectEqual(r, s geom.Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

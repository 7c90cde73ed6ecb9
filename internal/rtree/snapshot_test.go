package rtree

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// buildMutatedTree grows a tree through the incremental path (inserts
// plus some deletes), so its structure — unlike a bulk load's — carries
// splits, reinserts and page-id gaps. That is the hardest state a
// snapshot has to reproduce faithfully.
func buildMutatedTree(t *testing.T, n, dim int, seed int64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree, err := New(Config{Dim: dim, MaxEntries: 8, FirstPage: 1000})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		p := make(geom.Point, dim)
		for a := range p {
			p[a] = rng.Float64() * 512
		}
		pts = append(pts, p)
		if err := tree.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/5; i++ {
		j := rng.Intn(len(pts))
		if !tree.Delete(pts[j], int64(j)) && pts[j] != nil {
			t.Fatalf("delete %d failed", j)
		}
		pts[j] = nil
	}
	return tree
}

func TestPackedSnapshotRoundTrip(t *testing.T) {
	tree := buildMutatedTree(t, 400, 2, 11)
	p := tree.Pack()

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	var loaded Packed
	if n, err := loaded.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	} else if n != int64(buf.Len()) {
		t.Fatalf("ReadFrom consumed %d of %d bytes", n, buf.Len())
	}

	// The arena must be identical field for field.
	if loaded.root != p.root || loaded.dim != p.dim || loaded.size != p.size || loaded.height != p.height {
		t.Fatalf("scalars differ: %d/%d/%d/%d vs %d/%d/%d/%d",
			loaded.root, loaded.dim, loaded.size, loaded.height, p.root, p.dim, p.size, p.height)
	}
	for name, pair := range map[string][2]any{
		"level": {loaded.level, p.level},
		"page":  {loaded.page, p.page},
		"start": {loaded.start, p.start},
		"end":   {loaded.end, p.end},
		"child": {loaded.child, p.child},
		"rlo":   {loaded.rlo, p.rlo},
		"rhi":   {loaded.rhi, p.rhi},
		"pc":    {loaded.pc, p.pc},
		"ids":   {loaded.ids, p.ids},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("arena array %s did not round-trip", name)
		}
	}

	// The loaded shell must describe a valid R*-tree with the writer's
	// shape and paging.
	lt := loaded.Tree()
	if err := lt.CheckInvariants(); err != nil {
		t.Fatalf("loaded tree invariants: %v", err)
	}
	if lt.Len() != tree.Len() || lt.Height() != tree.Height() || lt.Dim() != tree.Dim() {
		t.Fatalf("tree shape: %d/%d/%d vs %d/%d/%d",
			lt.Len(), lt.Height(), lt.Dim(), tree.Len(), tree.Height(), tree.Dim())
	}
	if lt.cfg.MaxEntries != tree.cfg.MaxEntries || lt.cfg.MinEntries != tree.cfg.MinEntries {
		t.Fatalf("capacity: %d/%d vs %d/%d", lt.cfg.MinEntries, lt.cfg.MaxEntries, tree.cfg.MinEntries, tree.cfg.MaxEntries)
	}
	if lt.cfg.FirstPage != tree.cfg.FirstPage || lt.nextPage < tree.nextPage {
		t.Fatalf("pages: first %d next %d vs first %d next %d",
			lt.cfg.FirstPage, lt.nextPage, tree.cfg.FirstPage, tree.nextPage)
	}
	wb, ok1 := tree.Bounds()
	lb, ok2 := lt.Bounds()
	if ok1 != ok2 || !wb.Equal(lb) {
		t.Fatalf("bounds: %v vs %v", lb, wb)
	}
	if !loaded.Valid(lt) {
		t.Fatal("loaded snapshot not valid for its own tree")
	}

	// Queries on the loaded arena must match the writer's results AND
	// accesses exactly.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		q := geom.Point{rng.Float64() * 512, rng.Float64() * 512}
		var wtk, ltk pagestore.CostTracker
		want := p.Reader(&wtk).NearestBF(q, 5)
		got := loaded.Reader(&ltk).NearestBF(q, 5)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %d: results differ", i)
		}
		if wtk != ltk {
			t.Fatalf("query %d: cost %+v (writer) vs %+v (loaded)", i, wtk, ltk)
		}
	}

	// Round-trip is canonical: writing the loaded arena reproduces the
	// exact bytes.
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("snapshot bytes are not canonical across a load/save cycle")
	}
}

// TestLoadedShellImmutable locks the post-load contract: a loaded arena's
// tree is an immutable shell — Insert fails with ErrImmutable, Delete
// reports false — and a change is a new arena built from the points.
func TestLoadedShellImmutable(t *testing.T) {
	tree := buildMutatedTree(t, 150, 2, 5)
	var buf bytes.Buffer
	if _, err := tree.Pack().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var loaded Packed
	if _, err := loaded.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	lt := loaded.Tree()
	if err := lt.Insert(geom.Point{1, 2}, 1000); !errors.Is(err, ErrImmutable) {
		t.Fatalf("Insert on a loaded shell: %v, want ErrImmutable", err)
	}
	var first geom.Point
	var firstID int64
	loaded.All(func(p geom.Point, id int64) bool {
		first, firstID = p.Clone(), id
		return false
	})
	if lt.Delete(first, firstID) {
		t.Fatal("Delete on a loaded shell reported true")
	}
	if lt.Len() != tree.Len() || lt.CheckInvariants() != nil {
		t.Fatalf("refused writes changed the shell: len %d", lt.Len())
	}
}

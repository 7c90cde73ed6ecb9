package rtree

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/snapshot"
)

// buildShuffledTree packs n random points in a random leaf order (see
// packShuffled) on pages from 1000: overlapping nodes and an offset page
// range, the shape a snapshot has to reproduce without an STR order to
// fall back on.
func buildShuffledTree(t *testing.T, n, dim int, seed int64) *Packed {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = make(geom.Point, dim)
		for a := range pts[i] {
			pts[i][a] = rng.Float64() * 512
		}
	}
	return packShuffled(t, Config{Dim: dim, MaxEntries: 8, FirstPage: 1000}, pts, rng)
}

// writePlain writes p as a plain, single-tree snapshot.
func writePlain(w io.Writer, p *Packed) error {
	m := snapshot.Manifest{Kind: snapshot.KindPlain, Dim: p.dim, Points: p.size}
	return snapshot.Write(w, m, []*snapshot.Tree{p.Snapshot()})
}

func TestPackedSnapshotRoundTrip(t *testing.T) {
	p := buildShuffledTree(t, 320, 2, 11)
	tree := p.Tree()

	var buf bytes.Buffer
	if err := writePlain(&buf, p); err != nil {
		t.Fatalf("write: %v", err)
	}

	ad, err := snapshot.DecodeAdopted(buf.Bytes())
	if err == nil {
		err = ad.Verify()
	}
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	loaded, err := PackedFromSnapshot(ad.Trees[0], ad.Manifest.Dim, Config{})
	if err != nil {
		t.Fatalf("PackedFromSnapshot: %v", err)
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

	// The loaded shell must describe a valid R-tree with the writer's
	// shape and paging.
	lt := loaded.Tree()
	if err := lt.CheckInvariants(); err != nil {
		t.Fatalf("loaded tree invariants: %v", err)
	}
	if lt.Len() != tree.Len() || lt.Dim() != tree.Dim() {
		t.Fatalf("tree shape: %d/%d vs %d/%d", lt.Len(), lt.Dim(), tree.Len(), tree.Dim())
	}
	if lt.cfg.MaxEntries != tree.cfg.MaxEntries || lt.cfg.MinEntries != tree.cfg.MinEntries {
		t.Fatalf("capacity: %d/%d vs %d/%d", lt.cfg.MinEntries, lt.cfg.MaxEntries, tree.cfg.MinEntries, tree.cfg.MaxEntries)
	}
	if lt.cfg.FirstPage != tree.cfg.FirstPage || lt.nextPage != tree.nextPage {
		t.Fatalf("pages: first %d next %d vs first %d next %d",
			lt.cfg.FirstPage, lt.nextPage, tree.cfg.FirstPage, tree.nextPage)
	}
	wb, ok1 := tree.Bounds()
	lb, ok2 := lt.Bounds()
	if ok1 != ok2 || !rectEqual(wb, lb) {
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
	if err := writePlain(&again, loaded); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("snapshot bytes are not canonical across a load/save cycle")
	}
}

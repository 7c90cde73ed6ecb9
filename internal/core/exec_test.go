package core

import (
	"math/rand"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pq"
)

// TestReleaseDropsOversizedBuffers: a released context keeps the buffers
// an ordinary query grew, so the pool stays warm, but drops any buffer a
// large k or group grew beyond pq.RetainCap, so one outsized request
// cannot pin its memory in the pool.
func TestReleaseDropsOversizedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPts(rng, 6000, 1000)
	tr := buildTree(t, pts, 16)
	run := func(k, n int) *ExecContext {
		t.Helper()
		ec := &ExecContext{}
		qs := ec.Points(n)
		for i := range qs {
			qs[i] = geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		}
		if _, err := on(tr, BruteForce, qs, Options{K: k, Exec: ec}); err != nil {
			t.Fatal(err)
		}
		if cap(ec.best.items) < min(k, tr.Len()) {
			t.Fatalf("k = %d: result buffer holds %d", k, cap(ec.best.items))
		}
		ec.Release()
		return ec // released: inspected only, never used again
	}
	if ec := run(8, 4); cap(ec.best.items) < 8 || cap(ec.best.rows) < 16 || cap(ec.qsbuf) < 4 {
		t.Fatalf("ordinary query's buffers not kept: items %d rows %d group %d",
			cap(ec.best.items), cap(ec.best.rows), cap(ec.qsbuf))
	}
	if ec := run(5000, pq.RetainCap+1); cap(ec.best.items) != 0 || cap(ec.best.rows) != 0 ||
		cap(ec.qsbuf) != 0 || cap(ec.gflat) != 0 {
		t.Fatalf("oversized buffers kept: items %d rows %d group %d columns %d",
			cap(ec.best.items), cap(ec.best.rows), cap(ec.qsbuf), cap(ec.gflat))
	}
}

// TestKBestOwnsRows: the accumulator copies an accepted candidate's
// coordinates, so a kernel may offer points living in scratch it
// overwrites next, and results come back in one slab the caller owns.
func TestKBestOwnsRows(t *testing.T) {
	b := newKBest(3)
	scratch := geom.Point{0, 0}
	for i, d := range []float64{5, 1, 4, 2, 3} {
		scratch[0], scratch[1] = d, -d
		b.offer(GroupNeighbor{Point: scratch, ID: int64(i), Dist: d})
	}
	scratch[0], scratch[1] = 99, 99
	got := b.results()
	for i, want := range []float64{1, 2, 3} {
		if g := got[i]; g.Dist != want || g.Point[0] != want || g.Point[1] != -want {
			t.Fatalf("result %d = %+v, want dist %v at (%v, %v)", i, g, want, want, -want)
		}
	}
	got[0].Point[0] = -7
	if again := b.results(); again[0].Point[0] != 1 {
		t.Fatalf("writing a returned point changed the accumulator: %v", again[0].Point)
	}
}

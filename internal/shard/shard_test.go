package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"gnn/internal/core"
	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// buildPts is Build over a point slice.
func buildPts(cfg rtree.Config, pts []geom.Point, shards int) (*Set, error) {
	coords, err := rtree.Flatten(cfg, pts)
	if err != nil {
		return nil, err
	}
	return Build(cfg, coords, nil, shards)
}

// packPts STR-packs a point slice into one arena.
func packPts(t *testing.T, cfg rtree.Config, pts []geom.Point) *rtree.Packed {
	t.Helper()
	coords, err := rtree.Flatten(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rtree.PackSTR(cfg, coords, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randPts(rng *rand.Rand, n int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * span, rng.Float64() * span}
	}
	return pts
}

// TestBuildPartition checks the Hilbert partition's contract: balanced
// shard sizes, every input point in exactly one shard, and disjoint page
// ID ranges so the shards can share one accountant and buffer.
func TestBuildPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPts(rng, 1003, 500)
	for _, shards := range []int{1, 2, 5, 16} {
		s, err := buildPts(rtree.Config{MaxEntries: 8}, pts, shards)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumShards() != shards {
			t.Fatalf("%d shards, want %d", s.NumShards(), shards)
		}
		seen := map[int64]bool{}
		total, min, max := 0, len(pts), 0
		for i := 0; i < shards; i++ {
			u := s.Shard(i)
			if !u.Packed.Valid(u.Tree) {
				t.Fatalf("shard %d not packed", i)
			}
			if err := u.Tree.CheckInvariants(); err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			n := u.Tree.Len()
			total += n
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
			u.Packed.All(func(p geom.Point, id int64) bool {
				if seen[id] {
					t.Fatalf("id %d appears in two shards", id)
				}
				seen[id] = true
				if !p.Equal(pts[id]) {
					t.Fatalf("id %d moved: %v vs %v", id, p, pts[id])
				}
				return true
			})
		}
		if total != len(pts) || len(seen) != len(pts) {
			t.Fatalf("partition covers %d/%d points", len(seen), len(pts))
		}
		if max-min > 1 {
			t.Fatalf("unbalanced shards: min %d, max %d", min, max)
		}
	}
}

// TestDisjointPages verifies that per-shard trees occupy disjoint page ID
// ranges, the precondition for sharing one LRU buffer.
func TestDisjointPages(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := buildPts(rtree.Config{MaxEntries: 8}, randPts(rng, 400, 300), 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i := range s.NumShards() {
		for _, pg := range s.Shard(i).Packed.Snapshot().Page {
			if seen[pg] {
				t.Fatalf("tree %d reuses page %d", i, pg)
			}
			seen[pg] = true
		}
	}
}

// TestSearchMatchesSingleTree runs the same kernels against a sharded set
// and one monolithic tree and demands identical merged answers, for both
// scatter widths.
func TestSearchMatchesSingleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPts(rng, 2000, 800)
	single := packPts(t, rtree.Config{MaxEntries: 16}, pts)
	set, err := buildPts(rtree.Config{MaxEntries: 16}, pts, 6)
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[string]Kernel{"MBM": core.MBM, "MQM": core.MQM, "SPM": core.SPM, "brute": core.BruteForce}
	for trial := 0; trial < 8; trial++ {
		qs := randPts(rng, trial%5+1, 800)
		opt := core.Options{K: trial%4 + 1}
		for name, kern := range kernels {
			sopt := opt
			sopt.Packed = single
			want, err := kern(single.Tree(), qs, sopt)
			if err != nil {
				t.Fatalf("%s single: %v", name, err)
			}
			for _, workers := range []int{1, 4} {
				var tk pagestore.CostTracker
				o := opt
				o.Cost = &tk
				got, err := set.Search(qs, o, workers, kern)
				if err != nil {
					t.Fatalf("%s sharded: %v", name, err)
				}
				cfg := fmt.Sprintf("%s/workers=%d", name, workers)
				if len(got) != len(want) {
					t.Fatalf("%s: %d results, want %d", cfg, len(got), len(want))
				}
				for i := range want {
					if want[i].Dist != got[i].Dist || want[i].ID != got[i].ID {
						t.Fatalf("%s diverged at %d:\nwant %+v\ngot  %+v", cfg, i, want, got)
					}
				}
				if tk.Logical == 0 && name != "brute" {
					t.Fatalf("%s: no node accesses recorded", cfg)
				}
			}
		}
	}
}

// TestIteratorMatchesSingleTree steps the sharded merge against the
// monolithic incremental scan to exhaustion.
func TestIteratorMatchesSingleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPts(rng, 600, 400)
	single := packPts(t, rtree.Config{MaxEntries: 8}, pts)
	set, err := buildPts(rtree.Config{MaxEntries: 8}, pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	qs := randPts(rng, 4, 400)
	ref, err := core.NewGNNIterator(single.Tree(), qs, core.Options{Packed: single})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	it, err := set.NewIterator(qs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for i := 0; ; i++ {
		peek, peekOK := it.PeekDist()
		wr, wok := ref.Next()
		gr, gok := it.Next()
		if wok != gok {
			t.Fatalf("stream length diverged at %d", i)
		}
		if !wok {
			if peekOK {
				t.Fatalf("peek reported more results at %d", i)
			}
			break
		}
		if !peekOK || peek > gr.Dist {
			t.Fatalf("peek %v (ok=%v) is not a lower bound of %v at %d", peek, peekOK, gr.Dist, i)
		}
		if wr.Dist != gr.Dist {
			t.Fatalf("diverged at %d: %+v vs %+v", i, wr, gr)
		}
	}
}

// TestSharedBoundTruncation checks the mechanism itself: with a
// pre-tightened shared bound, a kernel must return only candidates below
// the bound (the merge layer's guarantee depends on it).
func TestSharedBoundTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPts(rng, 500, 300)
	p := packPts(t, rtree.Config{MaxEntries: 8}, pts)
	qs := randPts(rng, 3, 300)
	full, err := core.MBM(p.Tree(), qs, core.Options{K: 10, Packed: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Skip("dataset too small")
	}
	b := core.NewSharedBound()
	b.Tighten(full[4].Dist) // pretend another shard already found 10 ≤ this
	got, err := core.MBM(p.Tree(), qs, core.Options{K: 10, Shared: b, Packed: p})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		if g.Dist > full[4].Dist {
			t.Fatalf("kernel returned %v beyond the shared bound %v", g.Dist, full[4].Dist)
		}
	}
	// The prefix below the bound must be intact.
	for i := 0; i < len(got); i++ {
		if got[i].ID != full[i].ID || got[i].Dist != full[i].Dist {
			t.Fatalf("truncated prefix diverged at %d: %+v vs %+v", i, got[i], full[i])
		}
	}
	// Everything strictly below the bound survives (full[0..3]); the
	// candidate tying the bound exactly may be cut, like a tie against a
	// full kbest's k-th item — the merge layer re-supplies it from the
	// shard that published the bound.
	if len(got) > 10 || len(got) < 4 {
		t.Fatalf("unexpected truncated length %d", len(got))
	}
}

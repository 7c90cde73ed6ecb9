package rtree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gnn/internal/geom"
)

// TestNearestResultsOwned: nearestDF and NearestBF copy their results'
// points out of the arena, so writing to a returned point changes
// neither a repeat answer nor the index, for an STR-packed and a
// randomly ordered arena alike. The two traversals agree bit for bit.
func TestNearestResultsOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 2000, 1000)
	bulk, err := bulkLoadSTR(Config{MaxEntries: 10}, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := packShuffled(t, Config{MaxEntries: 10}, randPoints(rng, 2000, 1000), rng)
	for _, p := range []*Packed{bulk, shuffled} {
		rd := p.Reader(nil)
		for i := 0; i < 20; i++ {
			q := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
			for name, nearest := range map[string]func(geom.Point, int) []Neighbor{
				"DF": rd.nearestDF, "BF": rd.NearestBF,
			} {
				first := nearest(q, 7)
				want := make([]Neighbor, len(first))
				for j, nb := range first {
					want[j] = Neighbor{Point: nb.Point.Clone(), ID: nb.ID, Dist: nb.Dist}
					nb.Point[0], nb.Point[1] = math.Inf(1), math.Inf(-1)
				}
				if got := nearest(q, 7); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s query %d: answer changed after writing to returned points:\n got %v\nwant %v", name, i, got, want)
				}
				if bf := rd.NearestBF(q, 7); !reflect.DeepEqual(bf, want) {
					t.Fatalf("%s query %d: diverged from the best-first traversal", name, i)
				}
			}
		}
	}
}

// TestNNBestRowsFollowHeldResults: the nearestDF result set grows its
// coordinate rows with the candidates held, not with k, and recycles an
// evicted candidate's row once full.
func TestNNBestRowsFollowHeldResults(t *testing.T) {
	var b nnBest
	b.reset(1<<24, 2)
	for i := 0; i < 5; i++ {
		b.push(geom.Point{float64(i), float64(-i)}, int64(i), float64(i))
	}
	if got := len(b.rows); got != 10 {
		t.Fatalf("huge k: %d row floats for 5 candidates", got)
	}
	b.reset(3, 2)
	for _, d := range []float64{9, 1, 8, 2, 7, 3} {
		b.push(geom.Point{d, -d}, int64(d), d)
	}
	if got := len(b.rows); got != 6 {
		t.Fatalf("k = 3: %d row floats, want 6 (rows recycled once full)", got)
	}
	nbs := b.neighbors()
	for i, d := range []float64{1, 2, 3} {
		if nbs[i].ID != int64(d) || !nbs[i].Point.Equal(geom.Point{d, -d}) || nbs[i].Dist != math.Sqrt(d) {
			t.Fatalf("neighbor %d = %+v, want id %v at (%v, %v)", i, nbs[i], d, d, -d)
		}
	}
}

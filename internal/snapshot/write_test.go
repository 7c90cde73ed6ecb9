package snapshot_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gnn/internal/rtree"
	"gnn/internal/shard"
	"gnn/internal/snapshot"
)

// TestWriteInPlaceMatchesEncoding pins the two column paths of Write to
// the same bytes: a little-endian host writes the columns straight from
// the trees' memory, and the element-wise encoding (a big-endian host's
// path) must produce an identical file, checksums included. The table
// covers plain and four-shard trees, dimensions 1 to 3, empty, one point
// and multi-level.
func TestWriteInPlaceMatchesEncoding(t *testing.T) {
	if !snapshot.HostLittleEndian {
		t.Skip("the in-place path only runs on little-endian hosts")
	}
	for _, shards := range []int{0, 4} { // 0: a plain snapshot
		for dim := 1; dim <= 3; dim++ {
			for _, n := range []int{0, 1, 500} {
				name := fmt.Sprintf("shards%d_d%d_n%d", shards, dim, n)
				t.Run(name, func(t *testing.T) {
					m, trees := writeFixture(t, shards, dim, n)
					write := func(inPlace bool) []byte {
						defer snapshot.SetWriteColumnsInPlace(inPlace)()
						var buf bytes.Buffer
						if err := snapshot.Write(&buf, m, trees); err != nil {
							t.Fatalf("write (in place %v): %v", inPlace, err)
						}
						return buf.Bytes()
					}
					inPlace, encoded := write(true), write(false)
					if !bytes.Equal(inPlace, encoded) {
						t.Fatalf("in-place write (%d B) differs from the encoding (%d B)", len(inPlace), len(encoded))
					}
					if _, _, err := snapshot.Decode(inPlace); err != nil {
						t.Fatalf("decode: %v", err)
					}
				})
			}
		}
	}
}

// writeFixture bulk-loads n random points of dimension dim and returns
// the snapshot form of a plain tree (shards 0) or of a shard set.
func writeFixture(t *testing.T, shards, dim, n int) (snapshot.Manifest, []*snapshot.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(97*n + dim)))
	coords := make([]float64, n*dim) // axis-major: coordinate a of point i at a*n+i
	for i := range n {
		for a := range dim {
			coords[a*n+i] = rng.Float64() * 1000
		}
	}
	cfg := rtree.Config{Dim: dim, MaxEntries: 8}
	if shards == 0 {
		p, err := rtree.PackSTR(cfg, coords, nil)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot.Manifest{Kind: snapshot.KindPlain, Dim: dim, Points: n}, []*snapshot.Tree{p.Snapshot()}
	}
	set, err := shard.Build(cfg, coords, nil, shards)
	if err != nil {
		t.Fatal(err)
	}
	return set.Snapshot()
}

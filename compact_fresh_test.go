package gnn

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gnn/internal/geom"
)

// TestCompactionMatchesFreshBuild pins what a compaction hands back: the
// packed base the same points would get from a fresh build, whether the
// replaced base was built on the heap or mapped from a file. The
// compacted base's snapshot — and the file the compactor rotates — is
// byte for byte the snapshot of BuildIndex over the live multiset in the
// order compaction gathers it (base slots minus tombstones, then overlay
// inserts), and region MBM/SPM queries and GCP answer exactly like the
// fresh build, with the same cost.
func TestCompactionMatchesFreshBuild(t *testing.T) {
	const n = 3000
	cfg := IndexConfig{NodeCapacity: 16}
	rng := rand.New(rand.NewSource(47))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	ins := make([]Point, 2*pendFold-10) // folds one delta tree, leaves a pending tail
	for i := range ins {
		ins[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	group := []Point{{400, 410}, {450, 380}, {430, 470}}
	dir := t.TempDir()
	built, err := BuildIndex(pts, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "base.snap")
	if err := built.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	qix, err := BuildIndex(group, nil, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []struct {
		name string
		open func() (*Index, error)
	}{
		{"built", func() (*Index, error) { return BuildIndex(pts, nil, cfg) }},
		{"mapped", func() (*Index, error) { return OpenSnapshotMapped(path) }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			ix, err := kind.open()
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			rotated := filepath.Join(dir, kind.name+"-rotated.snap")
			err = ix.StartCompactor(CompactorConfig{Threshold: math.MaxInt, Interval: time.Hour, Path: rotated})
			if err != nil {
				t.Fatal(err)
			}

			// Delete every seventh base point, then insert: the live
			// multiset is the surviving base slots, then the inserts.
			var livePts []Point
			var liveIDs []int64
			slot := 0
			ix.view.Load().packed.All(func(p geom.Point, id int64) bool {
				if slot%7 == 0 {
					if !ix.Delete(Point(p), id) {
						t.Fatalf("delete of base point %d failed", id)
					}
				} else {
					livePts = append(livePts, Point(p.Clone()))
					liveIDs = append(liveIDs, id)
				}
				slot++
				return true
			})
			for i, p := range ins {
				if err := ix.Insert(p, int64(n+i)); err != nil {
					t.Fatal(err)
				}
				livePts = append(livePts, p)
				liveIDs = append(liveIDs, int64(n+i))
			}
			if ix.view.Load().ov.delta == nil {
				t.Fatal("inserts did not fold a delta tree")
			}
			if err := ix.Compact(); err != nil {
				t.Fatal(err)
			}
			if v := ix.view.Load(); v.ov != nil {
				t.Fatal("compaction left an overlay")
			}

			fresh, err := BuildIndex(livePts, liveIDs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want, got bytes.Buffer
			if err := fresh.WriteSnapshot(&want); err != nil {
				t.Fatal(err)
			}
			if err := ix.WriteSnapshot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("compacted snapshot (%d B) differs from a fresh build's (%d B)", got.Len(), want.Len())
			}
			if file, err := os.ReadFile(rotated); err != nil || !bytes.Equal(file, want.Bytes()) {
				t.Fatalf("rotated snapshot differs from a fresh build's (err %v)", err)
			}

			region := WithRegion(Point{300, 300}, Point{600, 600})
			queries := map[string][]QueryOption{
				"region MBM":    {WithK(5), WithAlgorithm(AlgoMBM), region},
				"region MBM-DF": {WithK(5), WithAlgorithm(AlgoMBM), WithDepthFirst(), region},
				"region SPM":    {WithK(5), WithAlgorithm(AlgoSPM), region},
				"region SPM-DF": {WithK(5), WithAlgorithm(AlgoSPM), WithDepthFirst(), region},
			}
			gcp, gcpCost, gcpErr := ix.GroupNNClosestPairsWithCost(qix, 0)
			for name, opts := range queries {
				res, cost, err := ix.GroupNNWithCost(group, opts...)
				wantRes, wantCost, err2 := fresh.GroupNNWithCost(group, opts...)
				if err != nil || err2 != nil || !reflect.DeepEqual(res, wantRes) || cost != wantCost {
					t.Fatalf("%s after compaction: %v %+v (err %v), fresh build %v %+v (err %v)",
						name, res, cost, err, wantRes, wantCost, err2)
				}
			}
			wantGCP, wantGCPCost, err := fresh.GroupNNClosestPairsWithCost(qix, 0)
			if gcpErr != nil || err != nil || !reflect.DeepEqual(gcp, wantGCP) || gcpCost != wantGCPCost {
				t.Fatalf("GCP after compaction: %v %+v (err %v), fresh build %v %+v (err %v)",
					gcp, gcpCost, gcpErr, wantGCP, wantGCPCost, err)
			}
		})
	}
}

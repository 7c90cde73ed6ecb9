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
)

// pendFold is the pending-tail length at which the write overlay folds
// its inserts into a delta tree.
const pendFold = 256

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
			base, err := ix.view.Load().Arena()
			if err != nil {
				t.Fatal(err)
			}
			for slot, id := range base.IDs() {
				p := Point(base.PointInto(int32(slot), nil))
				if slot%7 == 0 {
					if !ix.Delete(p, id) {
						t.Fatalf("delete of base point %d failed", id)
					}
				} else {
					livePts = append(livePts, p)
					liveIDs = append(liveIDs, id)
				}
			}
			for i, p := range ins {
				if err := ix.Insert(p, int64(n+i)); err != nil {
					t.Fatal(err)
				}
				livePts = append(livePts, p)
				liveIDs = append(liveIDs, int64(n+i))
			}
			if !hasStage(t, ix, group, "delta") {
				t.Fatal("inserts did not fold a delta tree")
			}
			if err := ix.Compact(); err != nil {
				t.Fatal(err)
			}
			if s := ix.Stats(); s.Delta != 0 || s.Tombstones != 0 {
				t.Fatalf("compaction left an overlay: %+v", s)
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

// TestFoldsMatchFreshBuild pins what a fold hands back on a plain and a
// sharded index, built and mapped, over the shapes an in-place bulk load must
// get right: a random mix of deletes and inserts (one folded delta tree
// and a pending tail), every point deleted, fewer live points than
// shards (2 of 4), and a (point, id) stored twice with one copy
// deleted. For each, the snapshot WriteSnapshot writes of the view with
// its writes still in the overlay, the snapshot after Compact and the
// file the compactor rotates are all byte for byte the snapshot of a
// fresh BuildIndex or BuildShardedIndex over the live multiset in the
// order compaction gathers it: base slots in shard then slot order,
// each delete masking the first live copy of its (point, id), then the
// inserts.
func TestFoldsMatchFreshBuild(t *testing.T) {
	const shards = 4
	cfg := IndexConfig{NodeCapacity: 8}
	rng := rand.New(rand.NewSource(59))
	random := func(n int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000}
		}
		return pts
	}
	dup := random(60)
	dup[41] = dup[17]
	dupIDs := make([]int64, len(dup))
	for i := range dupIDs {
		dupIDs[i] = int64(i)
	}
	dupIDs[41] = 17
	shapes := []struct {
		name string
		pts  []Point
		ids  []int64
		// del reports whether the base point at gather position i, the
		// copy-th one gathered with its id, is deleted.
		del func(i int, id int64, copy int) bool
		ins []Point
	}{
		{"mixed", random(3000), nil, func(i int, _ int64, _ int) bool { return i%7 == 0 }, random(2*pendFold - 10)},
		{"all-deleted", random(300), nil, func(int, int64, int) bool { return true }, nil},
		{"fewer-than-shards", random(40), nil, func(i int, _ int64, _ int) bool { return i != 5 && i != 30 }, nil},
		{"duplicate", dup, dupIDs, func(_ int, id int64, copy int) bool { return id == 17 && copy == 0 }, nil},
	}
	kinds := []struct {
		name  string
		build func(pts []Point, ids []int64) (*Index, error)
	}{
		{"plain", func(pts []Point, ids []int64) (*Index, error) { return BuildIndex(pts, ids, cfg) }},
		{"sharded", func(pts []Point, ids []int64) (*Index, error) { return BuildShardedIndex(pts, ids, shards, cfg) }},
	}
	snap := func(t *testing.T, ix *Index) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := ix.WriteSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, sh := range shapes {
		for _, k := range kinds {
			built, err := k.build(sh.pts, sh.ids)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "base.snap")
			if err := os.WriteFile(path, snap(t, built), 0o644); err != nil {
				t.Fatal(err)
			}
			// The live multiset in gather order.
			var livePts, delPts []Point
			var liveIDs, delIDs []int64
			i, copies := 0, map[int64]int{}
			for _, base := range built.view.Load().Arenas() {
				for s, id := range base.IDs() {
					p := Point(base.PointInto(int32(s), nil))
					copies[id]++
					if sh.del(i, id, copies[id]-1) {
						delPts, delIDs = append(delPts, p), append(delIDs, id)
					} else {
						livePts, liveIDs = append(livePts, p), append(liveIDs, id)
					}
					i++
				}
			}
			for j, p := range sh.ins {
				livePts, liveIDs = append(livePts, p), append(liveIDs, int64(len(sh.pts)+j))
			}
			built.Close()
			fresh, err := k.build(livePts, liveIDs)
			if err != nil {
				t.Fatal(err)
			}
			want := snap(t, fresh)
			fresh.Close()

			for _, o := range []struct {
				name string
				open func() (*Index, error)
			}{
				{"built", func() (*Index, error) { return k.build(sh.pts, sh.ids) }},
				{"mapped", func() (*Index, error) { return OpenSnapshotMapped(path) }},
			} {
				t.Run(sh.name+"/"+k.name+"/"+o.name, func(t *testing.T) {
					ix, err := o.open()
					if err != nil {
						t.Fatal(err)
					}
					defer ix.Close()
					rotated := filepath.Join(dir, o.name+"-rotated.snap")
					err = ix.StartCompactor(CompactorConfig{Threshold: math.MaxInt, Interval: time.Hour, Path: rotated})
					if err != nil {
						t.Fatal(err)
					}
					for j, p := range delPts {
						if !ix.Delete(p, delIDs[j]) {
							t.Fatalf("delete of base point %d failed", delIDs[j])
						}
					}
					for j, p := range sh.ins {
						if err := ix.Insert(p, int64(len(sh.pts)+j)); err != nil {
							t.Fatal(err)
						}
					}
					if got := snap(t, ix); !bytes.Equal(got, want) {
						t.Fatalf("snapshot of the view with overlay writes (%d B) differs from a fresh build's (%d B)", len(got), len(want))
					}
					if err := ix.Compact(); err != nil {
						t.Fatal(err)
					}
					if got := snap(t, ix); !bytes.Equal(got, want) {
						t.Fatalf("compacted snapshot (%d B) differs from a fresh build's (%d B)", len(got), len(want))
					}
					if file, err := os.ReadFile(rotated); err != nil || !bytes.Equal(file, want) {
						t.Fatalf("rotated snapshot differs from a fresh build's (err %v)", err)
					}
				})
			}
		}
	}
}

// TestOverlayLogOnlyDuringFold pins that the mutation log holds only the
// writes a running compaction will replay: writes with no cycle in
// flight are not logged, and a cycle leaves the log empty and off.
func TestOverlayLogOnlyDuringFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, 2000)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	ix, err := BuildIndex(pts, nil, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 600 {
		if err := ix.Insert(Point{rng.Float64() * 1000, rng.Float64() * 1000}, int64(len(pts)+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 60 {
		if !ix.Delete(pts[i], int64(i)) {
			t.Fatalf("delete of base point %d failed", i)
		}
	}
	if n := len(ix.log); n != 0 {
		t.Fatalf("%d writes logged with no compaction running", n)
	}
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(ix.log) != 0 || ix.logging {
		t.Fatalf("compaction left %d logged writes (logging %v)", len(ix.log), ix.logging)
	}
}

// hasStage reports whether a traced query of group on ix records the
// named stage.
func hasStage(t *testing.T, ix *Index, group []Point, name string) bool {
	t.Helper()
	_, ex, err := ix.GroupNNExplain(group)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ex.Stages {
		if s.Name == name {
			return true
		}
	}
	return false
}

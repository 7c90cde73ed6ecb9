package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// buildTreeIDs STR-packs pts (ids are the slice positions).
func buildTreeIDs(t testing.TB, pts []geom.Point) *rtree.Packed {
	t.Helper()
	cfg := rtree.Config{MaxEntries: 10}
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

func TestQueryFileBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pts := randPts(rng, 95, 1000)
	qf, err := NewQueryFile(pts, 30, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if qf.Len() != 95 || qf.NumBlocks() != 4 {
		t.Fatalf("Len/NumBlocks = %d/%d", qf.Len(), qf.NumBlocks())
	}
	total := 0
	for i := 0; i < qf.NumBlocks(); i++ {
		blk, err := qf.ReadBlock(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(blk) != qf.BlockLen(i) {
			t.Fatalf("block %d: %d vs %d", i, len(blk), qf.BlockLen(i))
		}
		mbr := qf.MBR(i)
		for _, p := range blk {
			if !mbr.ContainsPoint(p) {
				t.Fatalf("block %d point %v outside MBR %v", i, p, mbr)
			}
		}
		total += len(blk)
	}
	if total != 95 {
		t.Fatalf("blocks cover %d points", total)
	}
	if qf.Accountant().Logical() == 0 {
		t.Fatal("block reads not charged")
	}
	// Hilbert blocking should produce spatially compact blocks: total MBR
	// area well below numBlocks × workspace area.
	var area float64
	for i := 0; i < qf.NumBlocks(); i++ {
		area += qf.MBR(i).Area()
	}
	if area >= 4*1000*1000 {
		t.Fatalf("blocks not compact: total area %v", area)
	}
}

func TestQueryFileValidation(t *testing.T) {
	if _, err := NewQueryFile(nil, 10, nil, 0); !errors.Is(err, ErrEmptyQuery) {
		t.Fatal("empty query file accepted")
	}
	if _, err := NewQueryFile([]geom.Point{{1, 2, 3}}, 10, nil, 0); err == nil {
		t.Fatal("3-D query file accepted")
	}
	qf, err := NewQueryFile([]geom.Point{{1, 2}}, 0, nil, 0)
	if err != nil || qf.NumBlocks() != 1 {
		t.Fatalf("default block size: %v, %d blocks", err, qf.NumBlocks())
	}
}

func TestQueryFileAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randPts(rng, 120, 500)
	qf, _ := NewQueryFile(pts, 50, nil, 0)
	all, err := qf.AllPoints(nil)
	if err != nil || len(all) != 120 {
		t.Fatalf("AllPoints: %v, %d", err, len(all))
	}
	// Same multiset: compare coordinate sums.
	var s1, s2 float64
	for _, p := range pts {
		s1 += p[0] + p[1]
	}
	for _, p := range all {
		s2 += p[0] + p[1]
	}
	if math.Abs(s1-s2) > 1e-6 {
		t.Fatal("AllPoints lost or altered points")
	}
}

// --- GCP ---

func TestGCPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		pts := randPts(rng, 200+rng.Intn(300), 1000)
		qs := randPts(rng, 3+rng.Intn(40), 300)
		// Shift Q to exercise contained/overlapping/disjoint workspaces.
		dx := rng.Float64()*1400 - 200
		for i := range qs {
			qs[i][0] += dx
		}
		tp := buildTreeIDs(t, pts)
		tq := buildTreeIDs(t, qs)
		k := 1 + rng.Intn(4)
		want, _ := BruteForcePoints(pts, qs, Options{K: k})
		rep, err := GCP(tp, tq, GCPOptions{Options: Options{K: k}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameResults(t, "GCP", rep.Neighbors, want)
		if rep.PairsConsumed == 0 || rep.HeapMax == 0 {
			t.Fatalf("report lacks diagnostics: %+v", rep)
		}
	}
}

func TestGCPErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tp := buildTreeIDs(t, randPts(rng, 50, 100))
	tq := buildTreeIDs(t, randPts(rng, 10, 100))
	if _, err := GCP(tp, tq, GCPOptions{Options: Options{K: -1}}); !errors.Is(err, ErrBadK) {
		t.Fatal("bad k accepted")
	}
	if _, err := GCP(tp, tq, GCPOptions{Options: Options{Aggregate: Max}}); !errors.Is(err, ErrUnsupportedAggregate) {
		t.Fatal("Max aggregate accepted")
	}
	empty := buildTree(t, nil, 0)
	if _, err := GCP(tp, empty, GCPOptions{}); !errors.Is(err, ErrEmptyQuery) {
		t.Fatal("empty Q accepted")
	}
}

func TestGCPBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts := randPts(rng, 400, 1000)
	qs := randPts(rng, 200, 1000) // co-extensive workspaces: GCP struggles
	tp := buildTreeIDs(t, pts)
	tq := buildTreeIDs(t, qs)
	rep, err := GCP(tp, tq, GCPOptions{Options: Options{}, PairBudget: 10})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if rep == nil || rep.PairsConsumed != 11 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestGCPSmallContainedQ(t *testing.T) {
	// Fig 4.3a regime: Q tiny and central → GCP terminates after few pairs.
	rng := rand.New(rand.NewSource(25))
	pts := randPts(rng, 2000, 1000)
	qs := make([]geom.Point, 8)
	for i := range qs {
		qs[i] = geom.Point{495 + rng.Float64()*10, 495 + rng.Float64()*10}
	}
	tp := buildTreeIDs(t, pts)
	tq := buildTreeIDs(t, qs)
	rep, err := GCP(tp, tq, GCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BruteForcePoints(pts, qs, Options{})
	sameResults(t, "GCP", rep.Neighbors, want)
	if rep.PairsConsumed > int64(len(pts)*len(qs))/10 {
		t.Fatalf("GCP consumed %d of %d pairs on an easy instance",
			rep.PairsConsumed, len(pts)*len(qs))
	}
}

// --- F-MQM / F-MBM ---

func TestFMQMMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 20; trial++ {
		pts := clusteredPts(rng, 400+rng.Intn(400), 1000)
		nq := 20 + rng.Intn(200)
		qs := randPts(rng, nq, 600)
		tr := buildTreeIDs(t, pts)
		blockPts := 10 + rng.Intn(60) // force several blocks
		qf, err := NewQueryFile(qs, blockPts, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(4)
		want, _ := BruteForcePoints(pts, qs, Options{K: k})
		rep, err := diskOn(tr, FMQM, qf, DiskOptions{Options: Options{K: k}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameResults(t, "FMQM", rep.Neighbors, want)
		if rep.Rounds == 0 {
			t.Fatal("no rounds recorded")
		}
	}
}

func TestFMBMMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 20; trial++ {
		pts := clusteredPts(rng, 400+rng.Intn(400), 1000)
		nq := 20 + rng.Intn(200)
		qs := randPts(rng, nq, 600)
		tr := buildTreeIDs(t, pts)
		qf, err := NewQueryFile(qs, 10+rng.Intn(60), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(4)
		want, _ := BruteForcePoints(pts, qs, Options{K: k})
		for _, trav := range []Traversal{BestFirst, DepthFirst} {
			rep, err := diskOn(tr, FMBM, qf, DiskOptions{Options: Options{K: k, Traversal: trav}})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			sameResults(t, "FMBM", rep.Neighbors, want)
		}
	}
}

func TestFDiskAlgorithmsSingleBlockEqualsMemory(t *testing.T) {
	// With one block, F-MQM and F-MBM degenerate to MBM over all of Q.
	rng := rand.New(rand.NewSource(28))
	pts := randPts(rng, 500, 1000)
	qs := randPts(rng, 40, 300)
	tr := buildTreeIDs(t, pts)
	want, _ := BruteForcePoints(pts, qs, Options{K: 3})
	qf, _ := NewQueryFile(qs, 1000, nil, 0)
	if qf.NumBlocks() != 1 {
		t.Fatal("expected one block")
	}
	rep1, err := diskOn(tr, FMQM, qf, DiskOptions{Options: Options{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "FMQM-1block", rep1.Neighbors, want)
	rep2, err := diskOn(tr, FMBM, qf, DiskOptions{Options: Options{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "FMBM-1block", rep2.Neighbors, want)
}

func TestFDiskErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tr := buildTreeIDs(t, randPts(rng, 50, 100))
	qf, _ := NewQueryFile(randPts(rng, 20, 100), 10, nil, 0)
	if _, err := diskOn(tr, FMQM, qf, DiskOptions{Options: Options{K: -1}}); !errors.Is(err, ErrBadK) {
		t.Fatal("FMQM bad k accepted")
	}
	if _, err := diskOn(tr, FMQM, qf, DiskOptions{Options: Options{Aggregate: Min}}); !errors.Is(err, ErrUnsupportedAggregate) {
		t.Fatal("FMQM Min accepted")
	}
	if _, err := diskOn(tr, FMBM, qf, DiskOptions{Options: Options{K: -1}}); !errors.Is(err, ErrBadK) {
		t.Fatal("FMBM bad k accepted")
	}
	if _, err := diskOn(tr, FMBM, qf, DiskOptions{Options: Options{Aggregate: Max}}); !errors.Is(err, ErrUnsupportedAggregate) {
		t.Fatal("FMBM Max accepted")
	}
}

func TestFDiskEmptyTree(t *testing.T) {
	tr := buildTree(t, nil, 0)
	qf, _ := NewQueryFile([]geom.Point{{1, 1}, {2, 2}}, 10, nil, 0)
	rep, err := diskOn(tr, FMBM, qf, DiskOptions{})
	if err != nil || len(rep.Neighbors) != 0 {
		t.Fatalf("FMBM empty tree: %v, %d", err, len(rep.Neighbors))
	}
	rep, err = diskOn(tr, FMQM, qf, DiskOptions{})
	if err != nil || len(rep.Neighbors) != 0 {
		t.Fatalf("FMQM empty tree: %v, %d", err, len(rep.Neighbors))
	}
}

func TestDiskAlgorithmsChargeQueryIO(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	pts := clusteredPts(rng, 1000, 1000)
	qs := randPts(rng, 300, 500)
	tr := buildTreeIDs(t, pts)
	qc := pagestore.NewAccountant(0)
	qf, _ := NewQueryFile(qs, 50, qc, 0)
	tr.Tree().Accountant().Reset()
	rep, err := diskOn(tr, FMBM, qf, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if qc.Physical() == 0 {
		t.Fatal("F-MBM paid no Q page reads")
	}
	if tr.Tree().Accountant().Physical() == 0 {
		t.Fatal("F-MBM paid no R-tree accesses")
	}
	// The report's per-query cost must equal the combined aggregates.
	if rep.Cost.Logical != tr.Tree().Accountant().Logical()+qc.Logical() {
		t.Fatalf("per-query cost %d != tree %d + Q %d",
			rep.Cost.Logical, tr.Tree().Accountant().Logical(), qc.Logical())
	}
}

func TestFMBMBufferReducesQReads(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := clusteredPts(rng, 2000, 1000)
	qs := randPts(rng, 300, 500)
	tr := buildTreeIDs(t, pts)

	run := func(buffered bool) int64 {
		pages := 0
		if buffered {
			pages = 100
		}
		qc := pagestore.NewAccountant(pages)
		qf, _ := NewQueryFile(qs, 50, qc, 0)
		if _, err := diskOn(tr, FMBM, qf, DiskOptions{}); err != nil {
			t.Fatal(err)
		}
		return qc.Physical()
	}
	cold, warm := run(false), run(true)
	if warm > cold {
		t.Fatalf("buffered Q reads %d exceed unbuffered %d", warm, cold)
	}
}

func TestGCPAndFVariantsAgree(t *testing.T) {
	// Cross-validation: three completely different disk algorithms must
	// return identical distances.
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 8; trial++ {
		pts := clusteredPts(rng, 600, 1000)
		qs := randPts(rng, 60, 400)
		tp := buildTreeIDs(t, pts)
		tq := buildTreeIDs(t, qs)
		qf, _ := NewQueryFile(qs, 25, nil, 0)

		gcp, err := GCP(tp, tq, GCPOptions{Options: Options{K: 3}})
		if err != nil {
			t.Fatal(err)
		}
		fmqm, err := diskOn(tp, FMQM, qf, DiskOptions{Options: Options{K: 3}})
		if err != nil {
			t.Fatal(err)
		}
		fmbm, err := diskOn(tp, FMBM, qf, DiskOptions{Options: Options{K: 3}})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "GCPvsFMQM", gcp.Neighbors, fmqm.Neighbors)
		sameResults(t, "FMQMvsFMBM", fmqm.Neighbors, fmbm.Neighbors)
	}
}

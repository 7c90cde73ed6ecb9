package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gnn/internal/geom"
)

// TestQuickAllAlgorithmsAgree is the central property-based test: for any
// random instance (data, query group, k, aggregate where supported), every
// algorithm must return exactly the brute-force distances.
func TestQuickAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64, nRaw, qRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nData := int(nRaw)%400 + 20
		nQuery := int(qRaw)%30 + 1
		k := int(kRaw)%6 + 1
		pts := randPts(rng, nData, 500)
		qs := randPts(rng, nQuery, 200)
		tr := buildTree(t, pts, 4+rng.Intn(10))
		opt := Options{K: k}
		want, err := on(tr, BruteForce, qs, opt)
		if err != nil {
			return false
		}
		check := func(got []GroupNeighbor, err error) bool {
			if err != nil || len(got) != len(want) {
				return false
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
					return false
				}
			}
			return true
		}
		if !check(on(tr, MQM, qs, opt)) {
			t.Log("MQM mismatch")
			return false
		}
		if !check(on(tr, SPM, qs, opt)) {
			t.Log("SPM mismatch")
			return false
		}
		if !check(on(tr, MBM, qs, opt)) {
			t.Log("MBM mismatch")
			return false
		}
		if !check(on(tr, SPM, qs, Options{K: k, Traversal: DepthFirst})) {
			t.Log("SPM-DF mismatch")
			return false
		}
		if !check(on(tr, MBM, qs, Options{K: k, Traversal: DepthFirst})) {
			t.Log("MBM-DF mismatch")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDiskAlgorithmsAgree does the same for the disk-resident family.
func TestQuickDiskAlgorithmsAgree(t *testing.T) {
	f := func(seed int64, nRaw, qRaw uint8, blockRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		nData := int(nRaw)%300 + 30
		nQuery := int(qRaw)%150 + 2
		blockPts := int(blockRaw)%50 + 5
		pts := randPts(rng, nData, 500)
		qs := randPts(rng, nQuery, 300)
		tp := buildTreeIDs(t, pts)
		tq := buildTreeIDs(t, qs)
		qf, err := NewQueryFile(qs, blockPts, nil, 0)
		if err != nil {
			return false
		}
		want := bruteForcePoints(pts, qs, 2)
		match := func(got []GroupNeighbor, err error) bool {
			if err != nil || len(got) != len(want) {
				return false
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
					return false
				}
			}
			return true
		}
		gcp, err := GCP(tp, tq, GCPOptions{Options: Options{K: 2}})
		if !match(gcp.Neighbors, err) {
			t.Log("GCP mismatch")
			return false
		}
		fq, err := diskOn(tp, FMQM, qf, Options{K: 2})
		if !match(fq.Neighbors, err) {
			t.Log("FMQM mismatch")
			return false
		}
		fb, err := diskOn(tp, FMBM, qf, Options{K: 2})
		if !match(fb.Neighbors, err) {
			t.Log("FMBM mismatch")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickLemma1 re-verifies Lemma 1 (the foundation of SPM) on arbitrary
// configurations, including degenerate ones.
func TestQuickLemma1(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%20 + 1
		qs := randPts(rng, n, 100)
		q := geom.Point{rng.Float64()*300 - 100, rng.Float64()*300 - 100} // arbitrary q
		p := geom.Point{rng.Float64()*300 - 100, rng.Float64()*300 - 100}
		lhs := geom.SumDist(p, qs)
		rhs := float64(n)*geom.Dist(p, q) - geom.SumDist(q, qs)
		return lhs >= rhs-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickKBestMatchesSort checks the result-list data structure against
// a straightforward specification.
func TestQuickKBestMatchesSort(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw)%10 + 1
		n := int(nRaw) % 100
		b := newKBest(k)
		type rec struct {
			id int64
			d  float64
		}
		var all []rec
		for i := 0; i < n; i++ {
			r := rec{int64(i), math.Trunc(rng.Float64() * 50)}
			all = append(all, r)
			b.offer(GroupNeighbor{ID: r.id, Dist: r.d})
		}
		// Specification: k smallest distances of distinct ids.
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				if all[j].d < all[i].d {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := b.results()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Dist != want[i].d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

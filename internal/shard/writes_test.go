package shard

import (
	"testing"

	"gnn/internal/geom"
)

func TestTombSetEmpty(t *testing.T) {
	var ts *tombSet
	p := geom.Point{1, 2}
	if ts.total() != 0 || tombLen(ts) != 0 || ts.rejects(p, 1) || masked(ts, p, 1) != 0 {
		t.Fatal("nil tombSet is not empty")
	}
	if _, ok := ts.resurrect(p, 1); ok {
		t.Fatal("resurrect on empty set succeeded")
	}
	if _, ok := ts.delete(p, 1, 0); ok {
		t.Fatal("delete with baseN=0 succeeded")
	}
	if ts.consumer()(p, 1) {
		t.Fatal("empty consumer dropped a point")
	}
	zero := &tombSet{}
	if zero.total() != 0 || tombLen(zero) != 0 || zero.rejects(p, 1) {
		t.Fatal("zero tombSet is not empty")
	}
}

func TestTombSetMultiplicity(t *testing.T) {
	p := geom.Point{1, 2}
	ts, ok := (*tombSet)(nil).delete(p, 7, 2)
	if !ok {
		t.Fatal("first delete refused")
	}
	// One of two copies masked: the point still has a live occurrence.
	if ts.rejects(p, 7) {
		t.Fatal("half-masked point rejected")
	}
	if masked(ts, p, 7) != 1 || ts.total() != 1 || tombLen(ts) != 1 {
		t.Fatalf("after 1 delete: masked=%d total=%d len=%d", masked(ts, p, 7), ts.total(), tombLen(ts))
	}
	ts2, ok := ts.delete(p, 7, 99) // baseN only consulted on first delete
	if !ok {
		t.Fatal("second delete refused")
	}
	if !ts2.rejects(p, 7) || ts2.total() != 2 {
		t.Fatal("fully masked point not rejected")
	}
	// Beyond multiplicity: refused, receiver returned unchanged.
	ts3, ok := ts2.delete(p, 7, 2)
	if ok || ts3 != ts2 {
		t.Fatal("over-delete succeeded")
	}
	// COW: the earlier generation is untouched.
	if ts.rejects(p, 7) || masked(ts, p, 7) != 1 {
		t.Fatal("earlier generation mutated")
	}
}

func TestTombSetResurrect(t *testing.T) {
	p := geom.Point{3, 4}
	ts, _ := (*tombSet)(nil).delete(p, 1, 1)
	if !ts.rejects(p, 1) {
		t.Fatal("not masked")
	}
	ts2, ok := ts.resurrect(p, 1)
	if !ok {
		t.Fatal("resurrect refused")
	}
	if ts2.rejects(p, 1) || ts2.total() != 0 || tombLen(ts2) != 0 {
		t.Fatalf("resurrected set not empty: total=%d len=%d", ts2.total(), tombLen(ts2))
	}
	// Draining to empty removes the id entry entirely.
	if _, ok := ts2.resurrect(p, 1); ok {
		t.Fatal("double resurrect succeeded")
	}
	// COW again.
	if !ts.rejects(p, 1) {
		t.Fatal("earlier generation mutated by resurrect")
	}
}

func TestTombSetDistinctPointsSameID(t *testing.T) {
	// The base may hold different points under one id.
	a, b := geom.Point{0, 0}, geom.Point{5, 5}
	ts, _ := (*tombSet)(nil).delete(a, 9, 1)
	ts, ok := ts.delete(b, 9, 1)
	if !ok {
		t.Fatal("delete of second point under same id refused")
	}
	if tombLen(ts) != 2 || ts.total() != 2 {
		t.Fatalf("len=%d total=%d", tombLen(ts), ts.total())
	}
	if !ts.rejects(a, 9) || !ts.rejects(b, 9) {
		t.Fatal("per-point rejection wrong")
	}
	if ts.rejects(geom.Point{1, 1}, 9) {
		t.Fatal("unrelated point rejected")
	}
	ts, _ = ts.resurrect(a, 9)
	if ts.rejects(a, 9) || !ts.rejects(b, 9) {
		t.Fatal("resurrect leaked across points")
	}
	n := 0
	for _, l := range ts.m {
		n += len(l)
	}
	if n != 1 {
		t.Fatalf("%d tombs, want 1", n)
	}
}

func TestTombSetConsumer(t *testing.T) {
	// Base enumeration: three copies of p under id 1, two masked. The
	// consumer must drop exactly two and pass the third through.
	p := geom.Point{2, 2}
	ts, _ := (*tombSet)(nil).delete(p, 1, 3)
	ts, _ = ts.delete(p, 1, 3)
	drop := ts.consumer()
	dropped := 0
	for i := 0; i < 3; i++ {
		if drop(p, 1) {
			dropped++
		}
	}
	if dropped != 2 {
		t.Fatalf("consumer dropped %d, want 2", dropped)
	}
	if drop(geom.Point{9, 9}, 1) || drop(p, 2) {
		t.Fatal("consumer dropped an unmasked point")
	}
	// The consumer is stateful but never mutates the set.
	if masked(ts, p, 1) != 2 {
		t.Fatal("consumer mutated the tombSet")
	}
}

// TestTombSetPublishedUnchanged: successors share the published set's
// per-id lists, so every edit must copy the one list it changes. A
// published set answers masked, rejects, total and tombLen the same after
// successor deletes and resurrects on the same id and after a consumer
// pass, and two successors of one set never see each other's tombs.
func TestTombSetPublishedUnchanged(t *testing.T) {
	p, q, r, u := geom.Point{1, 2}, geom.Point{3, 4}, geom.Point{5, 6}, geom.Point{7, 8}
	var pub *tombSet
	for _, d := range []struct {
		p     geom.Point
		id    int64
		baseN int
	}{{p, 7, 3}, {q, 7, 1}, {u, 7, 1}, {p, 9, 1}} {
		var ok bool
		if pub, ok = pub.delete(d.p, d.id, d.baseN); !ok {
			t.Fatalf("setup delete of %v/%d refused", d.p, d.id)
		}
	}
	// Reviving u drops it from id 7's list, leaving spare capacity that a
	// successor's append must not write into.
	pub, _ = pub.resurrect(u, 7)
	type answers struct {
		masked         [3]int
		rejectP, rejQ  bool
		total, tombLen int
	}
	snap := func(ts *tombSet) answers {
		return answers{
			masked:  [3]int{masked(ts, p, 7), masked(ts, q, 7), masked(ts, p, 9)},
			rejectP: ts.rejects(p, 7), rejQ: ts.rejects(q, 7),
			total: ts.total(), tombLen: tombLen(ts),
		}
	}
	want := snap(pub)
	check := func(step string) {
		t.Helper()
		if got := snap(pub); got != want {
			t.Fatalf("after %s the published set answers %+v, want %+v", step, got, want)
		}
	}

	s1, ok := pub.delete(p, 7, 3) // an existing tomb's count
	if !ok || masked(s1, p, 7) != 2 {
		t.Fatalf("successor delete: ok %v, masked %d", ok, masked(s1, p, 7))
	}
	check("delete of a tombstoned point")
	s2, ok := pub.resurrect(q, 7) // removes q's tomb from the shared list
	if !ok || masked(s2, q, 7) != 0 || masked(s2, p, 7) != 1 {
		t.Fatalf("successor resurrect: ok %v, masked q %d p %d", ok, masked(s2, q, 7), masked(s2, p, 7))
	}
	check("resurrect")
	s3, _ := pub.resurrect(p, 7)
	check("resurrect of a multiply masked point")
	if masked(s3, p, 7) != 0 || masked(s3, q, 7) != 1 {
		t.Fatalf("successor resurrect of p: masked p %d q %d", masked(s3, p, 7), masked(s3, q, 7))
	}
	a, _ := pub.delete(r, 7, 1)
	b, _ := pub.delete(u, 7, 1)
	check("two deletes of new points")
	if masked(a, r, 7) != 1 || masked(a, u, 7) != 0 || masked(b, u, 7) != 1 || masked(b, r, 7) != 0 {
		t.Fatalf("sibling successors share a list: a masks r %d u %d, b masks u %d r %d",
			masked(a, r, 7), masked(a, u, 7), masked(b, u, 7), masked(b, r, 7))
	}
	drop := pub.consumer()
	for range 3 {
		drop(p, 7)
	}
	check("a consumer pass")
}

// masked returns how many base occurrences of (p, id) ts deletes.
func masked(ts *tombSet, p geom.Point, id int64) int {
	t, ok := ts.lookup(p, id)
	if !ok {
		return 0
	}
	return t.count
}

// tombLen returns the number of distinct tombstoned (point, id) pairs.
func tombLen(ts *tombSet) int {
	if ts == nil {
		return 0
	}
	n := 0
	for _, l := range ts.m {
		n += len(l)
	}
	return n
}

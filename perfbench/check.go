package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"

	"gnn"
	"gnn/internal/server"
)

// refDist is the reference aggregate distance. It shares no code with the
// kernels but keeps the library's canonical floating-point order (the
// square root of an axis-ordered squared sum per member, aggregated in
// member order), so the daemon's answers must match it bit for bit.
//
// It stops early once the running aggregate reaches cutoff: the terms are
// non-negative, so the running sum or max never decreases, and the full
// value would be at least cutoff too. The returned value is then only
// known to be >= cutoff.
func refDist(p gnn.Point, qs []gnn.Point, isMax bool, cutoff float64) float64 {
	var out float64
	for _, q := range qs {
		var dsq float64
		for ax := range p {
			d := p[ax] - q[ax]
			dsq += d * d
		}
		d := math.Sqrt(dsq)
		if isMax {
			if d > out {
				out = d
			}
		} else {
			out += d
		}
		if out >= cutoff {
			return out
		}
	}
	return out
}

// refTopK scans every live point and returns, in ascending order, the k
// smallest aggregate distances among those at most within (+Inf for no
// limit). Passing the k-th distance of an answer under test as within
// only speeds the scan up: a correct answer's k distances are all at most
// its k-th, so the result is unchanged, and an answer whose k-th is too
// small gets fewer than k reference distances back, which still fails
// the comparison.
//
// A point is skipped outright when a lower bound on its distance already
// reaches the cutoff: every member is at least mindist(p, MBR of the
// group) away, so the sum is at least n times that and the max at least
// that. The bound is deflated far beyond floating-point rounding, so it
// never skips a point the exact scan would keep.
func refTopK(live *liveSet, qs []gnn.Point, isMax bool, k int, within float64) []float64 {
	lo, hi := slices.Clone(qs[0]), slices.Clone(qs[0])
	for _, q := range qs {
		for ax := range q {
			lo[ax], hi[ax] = min(lo[ax], q[ax]), max(hi[ax], q[ax])
		}
	}
	scale := 1 - 1e-9
	if !isMax {
		scale *= float64(len(qs))
	}
	best := make([]float64, 0, k+1)
	limit := math.Nextafter(within, math.Inf(1))
	for _, p := range live.pts {
		cutoff := limit
		if len(best) == k {
			cutoff = best[k-1]
		}
		var gap float64
		for ax := range p {
			g := max(lo[ax]-p[ax], p[ax]-hi[ax], 0)
			gap += g * g
		}
		if math.Sqrt(gap)*scale >= cutoff {
			continue
		}
		d := refDist(p, qs, isMax, cutoff)
		if d >= cutoff {
			continue
		}
		i := len(best)
		best = append(best, d)
		for i > 0 && best[i-1] > d {
			best[i] = best[i-1]
			i--
		}
		best[i] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// liveSet is the point multiset the daemon holds at a point in the
// script: the base points with every earlier write applied.
type liveSet struct {
	pts []gnn.Point
	ids []int64
	pos map[int64]int
}

func newLiveSet(pts []gnn.Point, ids []int64) *liveSet {
	l := &liveSet{pos: make(map[int64]int, len(pts))}
	for i := range pts {
		l.insert(pts[i], ids[i])
	}
	return l
}

func (l *liveSet) insert(p gnn.Point, id int64) {
	l.pos[id] = len(l.pts)
	l.pts = append(l.pts, p)
	l.ids = append(l.ids, id)
}

func (l *liveSet) remove(id int64) bool {
	i, ok := l.pos[id]
	if !ok {
		return false
	}
	last := len(l.pts) - 1
	l.pts[i], l.ids[i] = l.pts[last], l.ids[last]
	l.pos[l.ids[i]] = i
	l.pts, l.ids = l.pts[:last], l.ids[:last]
	delete(l.pos, id)
	return true
}

// tally is the verdict over one run's requests.
type tally struct {
	attempted  int
	transport  int   // no HTTP response
	non2xx     int   // an HTTP status outside 2xx
	wrong      int   // a 2xx answer that disagrees with the reference
	checked    int   // query answers compared with the reference
	nodeAccess int64 // summed cost.node_accesses of the 2xx query answers
	queries    int   // 2xx query answers
}

func (t tally) failed() int { return t.transport + t.non2xx + t.wrong }

// failedFrac is (transport errors + non-2xx + wrong answers) / attempted.
func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// verify replays the script's requests in order against a live set that
// starts as the base points. A failed write is not applied, exactly as
// the daemon would not have applied it. Every query answer must parse
// and hold min(k, live) ranks; the sampled ones (op.check) must match the
// reference distances exactly. A delete must report that it deleted.
func verify(live *liveSet, ops []op, outs []outcome, k int, isMax bool) tally {
	t := tally{attempted: len(ops)}
	for i, o := range ops {
		out := outs[i]
		switch {
		case out.status == 0:
			t.transport++
			continue
		case !statusOK(out.status):
			t.non2xx++
			continue
		}
		if o.kind != opQuery {
			if !applyWrite(live, o, out.body) {
				t.wrong++
			}
			continue
		}
		var resp server.QueryResponse
		if err := json.Unmarshal(out.body, &resp); err != nil {
			t.wrong++
			continue
		}
		t.queries++
		t.nodeAccess += resp.Cost.NodeAccesses
		if len(resp.Results) != min(k, len(live.pts)) {
			t.wrong++
			continue
		}
		if !o.check {
			continue
		}
		t.checked++
		within := math.Inf(1)
		if n := len(resp.Results); n > 0 {
			within = resp.Results[n-1].Dist
		}
		want := refTopK(live, o.group, isMax, k, within)
		if len(want) != len(resp.Results) {
			t.wrong++
			continue
		}
		for r, got := range resp.Results {
			if got.Dist != want[r] {
				t.wrong++
				break
			}
		}
	}
	return t
}

// applyWrite mirrors one acknowledged write into the live set and reports
// whether the daemon's reply agrees with it.
func applyWrite(live *liveSet, o op, body []byte) bool {
	var resp server.MutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	if o.kind == opInsert {
		live.insert(o.p, o.id)
		return true
	}
	return resp.Deleted && live.remove(o.id)
}

// statusOK reports a 2xx status.
func statusOK(s int) bool { return s >= http.StatusOK && s < 300 }

func (t tally) String() string {
	return fmt.Sprintf("attempted=%d transport=%d non2xx=%d wrong=%d checked=%d",
		t.attempted, t.transport, t.non2xx, t.wrong, t.checked)
}

//go:build !race

// The hot path's cost contracts, measured in one process with every
// metric, trace hook and explain probe compiled in. Excluded under the
// race detector: there sync.Pool drops Puts at random, so the same warm
// queries allocate 9–15 times instead of 4, and the timed passes run
// about 13× slower.
package gnn_test

import (
	"strings"
	"testing"
	"time"

	"gnn"
)

// hotPathAllocs is the warm packed MBM kernel's allocation count per
// query, on both traversals and every aggregate.
const hotPathAllocs = 4

// TestHotPathAllocs pins the MBM cells of BenchmarkGroupNNAllocs at
// exactly hotPathAllocs allocations per warm query. Each run answers the
// whole workload, so a single extra allocation in any one query shows as
// a fraction above the budget rather than truncating away.
func TestHotPathAllocs(t *testing.T) {
	ix, queries := allocFixture(t)
	ran := 0
	for _, cell := range allocCells {
		if !strings.HasPrefix(cell.name, "MBM-") {
			continue
		}
		ran++
		opts := append([]gnn.QueryOption{gnn.WithK(8)}, cell.opts...)
		var qerr error
		perRun := testing.AllocsPerRun(20, func() {
			for _, q := range queries {
				if _, err := ix.GroupNN(q, opts...); err != nil {
					qerr = err
				}
			}
		})
		if qerr != nil {
			t.Fatalf("%s: %v", cell.name, qerr)
		}
		perQuery := perRun / float64(len(queries))
		t.Logf("%s: %.2f allocs/op", cell.name, perQuery)
		if perQuery != hotPathAllocs {
			t.Errorf("%s: %.2f allocs/op, want exactly %d", cell.name, perQuery, hotPathAllocs)
		}
	}
	if ran == 0 {
		t.Fatal("no MBM cell in allocCells")
	}
}

// maxExplainRatio bounds what an explained query may cost over the plain
// one. Tracing does real extra work (stage clocks, prune counters), but
// it must stay the same order of magnitude as the query.
const maxExplainRatio = 2.0

// TestExplainOverhead bounds GroupNNExplain's time against plain GroupNN
// on the warm packed MBM kernel. The two sides run in alternating passes
// so drift hits both alike, and each side keeps its fastest pass.
func TestExplainOverhead(t *testing.T) {
	ix, queries := allocFixture(t)
	opts := []gnn.QueryOption{gnn.WithK(8), gnn.WithAlgorithm(gnn.AlgoMBM)}
	pass := func(explain bool) time.Duration {
		const rounds = 24
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, q := range queries {
				var err error
				if explain {
					_, _, err = ix.GroupNNExplain(q, opts...)
				} else {
					_, err = ix.GroupNN(q, opts...)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		return time.Since(start)
	}
	pass(false) // warm both entry points' scratch
	pass(true)
	const passes = 5
	var plain, explained time.Duration
	for i := 0; i < passes; i++ {
		p, e := pass(false), pass(true)
		if i == 0 || p < plain {
			plain = p
		}
		if i == 0 || e < explained {
			explained = e
		}
	}
	ratio := float64(explained) / float64(plain)
	t.Logf("explained/plain %.3f (min of %d passes: plain %v, explained %v)", ratio, passes, plain, explained)
	if ratio > maxExplainRatio {
		t.Errorf("explained/plain = %.3f, want ≤ %.1f", ratio, maxExplainRatio)
	}
}

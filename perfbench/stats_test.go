package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 5000, 5000},
		{99, 9900, 100},
		{100, 10_000, 0},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile([]float64{3, 1, 2}, 50); v != 2 || beyond != 1 {
		t.Errorf("p50 of {3,1,2} = %v with %d beyond, want 2 with 1", v, beyond)
	}
	if v, beyond := percentile([]float64{7}, 99); v != 7 || beyond != 0 {
		t.Errorf("p99 of one sample = %v with %d beyond, want 7 with 0", v, beyond)
	}
}

// TestScriptsLeaveHundredBeyondP99 pins the sample counts a run of the
// benchmark's run length (15 s in BENCHMARK.json) produces: every p99 it
// prints must have at least 100 samples beyond it.
func TestScriptsLeaveHundredBeyondP99(t *testing.T) {
	for _, w := range workloads {
		_, reads, writes := w.counts(15)
		for name, n := range map[string]int{"reads": reads, "writes": writes} {
			if n == 0 {
				continue // a read-only workload prints no write percentiles
			}
			if _, beyond := percentile(make([]float64, n), 99); beyond < 100 {
				t.Errorf("%s: %d %s leave %d samples beyond p99, want >= 100", w.name, n, name, beyond)
			}
		}
	}
}

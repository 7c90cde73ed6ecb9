package server

import "testing"

// observed returns a fresh metrics plane with the given latencies
// recorded on the groupnn/mbm series.
func observed(us ...uint64) *serverMetrics {
	m := newServerMetrics(&Server{})
	for _, v := range us {
		m.observeQuery(epGroupNN, algoMBM, v)
	}
	return m
}

// TestHistogram pins the /v1/stats latency read-out: one summary over
// every endpoint × algorithm series, monotone percentiles with a ≤2×
// upper-bound bias, and zeros before the first served query.
func TestHistogram(t *testing.T) {
	m := observed(0, 1, 2, 3, 100, 1000, 1000)
	m.observeQuery(epGroupNN, algoMQM, 1000)
	m.observeQuery(epBatch, algoSPM, 100000)
	lat := m.servedLatency()
	if n := lat.Total(); n != 9 {
		t.Fatalf("summary counts %d observations, want all 9 series' observations", n)
	}
	p50, p99, p999 := lat.Quantile(0.50), lat.Quantile(0.99), lat.Quantile(0.999)
	if p50 > p99 || p99 > p999 {
		t.Fatalf("percentiles not monotone: %d %d %d", p50, p99, p999)
	}
	// p50 of the 9 samples is 100µs → bucket (64, 128].
	if p50 != 128 {
		t.Fatalf("p50 = %d, want 128", p50)
	}
	if p999 != 131072 { // 100000µs → (2^16, 2^17]
		t.Fatalf("p999 = %d, want 131072", p999)
	}
	if mean, want := lat.MeanUS(), float64(0+1+2+3+100+3000+100000)/9; mean != want {
		t.Fatalf("mean = %v, want %v", mean, want)
	}
	empty := observed().servedLatency()
	if p := empty.Quantile(0.5); p != 0 || empty.MeanUS() != 0 {
		t.Fatalf("empty summary p50 = %d, mean %v", p, empty.MeanUS())
	}
}

// TestHistogramBucketEdges pins the bucket convention /v1/stats reports
// in, shared with /metrics: bucket i is (2^(i-1), 2^i], so a latency of
// exactly 2^i µs reports 2^i and one microsecond more reports 2^(i+1).
func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		us   uint64
		want uint64 // p50 with only this observation
	}{
		{0, 1}, // [0, 1]
		{1, 1},
		{2, 2}, // (1, 2]
		{3, 4}, // (2, 4]
		{4, 4},
		{5, 8},
		{1023, 1024},
		{1024, 1024},
		{1025, 2048},
	}
	for _, c := range cases {
		lat := observed(c.us).servedLatency()
		if got := lat.Quantile(0.5); got != c.want {
			t.Errorf("observe(%d): p50 = %d, want %d", c.us, got, c.want)
		}
	}
}

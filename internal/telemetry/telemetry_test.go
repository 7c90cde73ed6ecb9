package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "requests", Label{"endpoint", "/v1/groupnn"})
	g := r.Gauge("test_inflight", "inflight requests")
	h := r.Histogram("test_latency_us", "latency")

	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(1 << 20)
	if got := h.Count(); got != 4 {
		t.Fatalf("hist count = %d, want 4", got)
	}
	if got := h.SumUS(); got != 3+1<<20 {
		t.Fatalf("hist sum = %d, want %d", got, 3+1<<20)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		us   uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 38, 38}, {1<<38 + 1, 39}, {1 << 62, 39}, {math.MaxUint64, 39},
	}
	for _, c := range cases {
		if got := bucketIndex(c.us); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.us, got, c.want)
		}
	}
	// Every value must land in a bucket whose upper bound covers it
	// (except the overflow cell, which catches everything).
	for us := uint64(1); us < 1<<20; us = us*3 + 1 {
		i := bucketIndex(us)
		if i < NumBuckets-1 && BucketUpperUS(i) < us {
			t.Errorf("value %d above its bucket upper %d", us, BucketUpperUS(i))
		}
		if i > 0 && BucketUpperUS(i-1) >= us {
			t.Errorf("value %d fits the previous bucket (upper %d)", us, BucketUpperUS(i-1))
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x", Label{"a", "1"})
	r.Counter("dup_total", "x", Label{"a", "2"}) // distinct labels: fine
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate (name, labels) registration did not panic")
		}
	}()
	r.Counter("dup_total", "x", Label{"a", "1"})
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("conflict_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("conflict_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "with space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "x")
		}()
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rt_requests_total", "total requests", Label{"endpoint", "/v1/groupnn"}, Label{"outcome", "ok"})
	c2 := r.Counter("rt_requests_total", "total requests", Label{"endpoint", "/v1/groupnn"}, Label{"outcome", "error"})
	g := r.Gauge("rt_inflight", "inflight")
	r.GaugeFunc("rt_heap_bytes", "heap", func() float64 { return 12345.5 })
	h := r.Histogram("rt_latency_us", "latency", Label{"algo", "mbm"})
	r.Histogram("rt_latency_us", "latency", Label{"algo", "spm"})
	esc := r.Counter("rt_escaped_total", "weird \\ help\nline", Label{"path", "a\"b\\c\nd"})

	c.Add(3)
	c2.Inc()
	g.Set(-2)
	h.Observe(5)
	h.Observe(1 << 50) // overflow bucket
	esc.Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition did not round-trip:\n%s\nerror: %v", text, err)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	req := byName["rt_requests_total"]
	if req.Type != "counter" || len(req.Samples) != 2 {
		t.Fatalf("rt_requests_total parsed as %+v", req)
	}
	for _, s := range req.Samples {
		switch s.Labels["outcome"] {
		case "ok":
			if s.Value != 3 {
				t.Errorf("ok counter = %g, want 3", s.Value)
			}
		case "error":
			if s.Value != 1 {
				t.Errorf("error counter = %g, want 1", s.Value)
			}
		default:
			t.Errorf("unexpected sample %+v", s)
		}
	}
	if f := byName["rt_heap_bytes"]; len(f.Samples) != 1 || f.Samples[0].Value != 12345.5 {
		t.Errorf("gauge func parsed as %+v", f)
	}
	lat := byName["rt_latency_us"]
	if lat.Type != "histogram" {
		t.Fatalf("rt_latency_us type = %q", lat.Type)
	}
	// NumBuckets + le=+Inf + sum + count, for each of two label sets.
	if want := 2 * (NumBuckets + 3); len(lat.Samples) != want {
		t.Errorf("histogram sample count = %d, want %d", len(lat.Samples), want)
	}
	var infSeen bool
	for _, s := range lat.Samples {
		if s.Name == "rt_latency_us_count" && s.Labels["algo"] == "mbm" && s.Value != 2 {
			t.Errorf("mbm count = %g, want 2", s.Value)
		}
		if s.Labels["le"] == "+Inf" && s.Labels["algo"] == "mbm" {
			infSeen = true
			if s.Value != 2 {
				t.Errorf("+Inf bucket = %g, want 2", s.Value)
			}
		}
	}
	if !infSeen {
		t.Error("no +Inf bucket emitted")
	}
	if f := byName["rt_escaped_total"]; len(f.Samples) != 1 || f.Samples[0].Labels["path"] != "a\"b\\c\nd" {
		t.Errorf("escaped label did not round-trip: %+v", f)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_type_decl 1\n",
		"# TYPE x counter\nx{le=\"oops\" 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x banana\nx 1\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\n", // non-cumulative
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",      // missing +Inf
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 2\n",            // count mismatch
		"# TYPE x counter\n# TYPE x counter\nx 1\n",                           // duplicate TYPE
		"# TYPE x counter\nx{a=\"1\",a=\"2\"} 1\n",                            // duplicate label
		"# TYPE h histogram\nh_bogus 1\n",                                     // bad suffix
	}
	for _, text := range bad {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("ParseText accepted malformed input:\n%s", text)
		}
	}
}

func TestParseAcceptsTimestampAndBareSamples(t *testing.T) {
	text := "# HELP x help text here\n# TYPE x gauge\nx 1.5 1700000000000\nx{a=\"b\"} 2\n"
	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || len(fams[0].Samples) != 2 || fams[0].Help != "help text here" {
		t.Fatalf("parsed %+v", fams)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "")
	g := r.Gauge("cc_gauge", "")
	h := r.Histogram("cc_latency_us", "")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(seed + uint64(i))
				// Scrape concurrently with recording.
				if i%251 == 0 {
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
					if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(uint64(w) * 100)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}

func TestRecordingDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("na_total", "")
	g := r.Gauge("na_gauge", "")
	h := r.Histogram("na_latency_us", "")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(9)
		g.Add(-1)
		h.Observe(137)
	}); n != 0 {
		t.Fatalf("hot-path recording allocates %.1f allocs/op, want 0", n)
	}
}

// read returns h's in-process bucket read.
func read(h *Histogram) Buckets {
	var b Buckets
	h.AddTo(&b)
	return b
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	b := read(&h)
	for _, q := range []float64{0.50, 0.99, 0.999} {
		if v := b.Quantile(q); v != 0 {
			t.Errorf("quantile %v = %d on empty histogram, want 0", q, v)
		}
	}
	if m := b.MeanUS(); m != 0 {
		t.Errorf("mean = %v on empty histogram, want 0", m)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(100) // bucket 7: (64, 128]
	b := read(&h)
	for _, q := range []float64{0.0, 0.50, 0.99, 0.999} {
		if v := b.Quantile(q); v != 128 {
			t.Errorf("quantile %v = %d, want 128 (the single bucket's upper bound)", q, v)
		}
	}
	if m := b.MeanUS(); m != 100 {
		t.Errorf("mean = %v, want 100", m)
	}
}

func TestHistogramQuantileRankBoundaries(t *testing.T) {
	var h Histogram
	// 99 fast observations and 1 slow one: rank 99 of 0..99 is the slow
	// one, so p99 lands exactly on its bucket.
	for i := 0; i < 99; i++ {
		h.Observe(10) // bucket (8, 16]
	}
	h.Observe(1 << 20) // bucket (2^19, 2^20]: an exact power reports itself
	b := read(&h)
	if p50, p98 := b.Quantile(0.50), b.Quantile(0.98); p50 != 16 || p98 != 16 {
		t.Errorf("p50/p98 = %d/%d, want 16/16", p50, p98)
	}
	if p := b.Quantile(0.99); p != 1<<20 {
		t.Errorf("p99 = %d, want %d (the slow observation)", p, 1<<20)
	}
	// q = 1.0 clamps to the last recorded rank instead of reading past it.
	if p := b.Quantile(1.0); p != 1<<20 {
		t.Errorf("p100 = %d, want %d", p, 1<<20)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	// Past the last finite bucket (2^38 µs): both land in the overflow
	// cell, not out of bounds.
	h.Observe(1 << 50)
	h.Observe(math.MaxUint64)
	b := read(&h)
	want := BucketUpperUS(NumBuckets - 1)
	for _, q := range []float64{0.5, 0.999} {
		if v := b.Quantile(q); v != want {
			t.Errorf("quantile %v = %d, want overflow-bucket bound %d", q, v, want)
		}
	}
	if n := h.Count(); n != 2 {
		t.Errorf("count = %d, want 2", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(uint64(i % 4096))
				if i%512 == 0 {
					b := read(&h) // concurrent reads must not race
					b.Quantile(0.5)
					b.MeanUS()
				}
			}
		}()
	}
	wg.Wait()
	if n := h.Count(); n != workers*perWorker {
		t.Errorf("count = %d, want %d", n, workers*perWorker)
	}
	b := read(&h)
	if n := b.Total(); n != workers*perWorker {
		t.Errorf("bucket sum = %d, want %d", n, workers*perWorker)
	}
	// All observations are < 4096 µs, so every quantile is ≤ 4096.
	if p := b.Quantile(0.999); p > 4096 {
		t.Errorf("p99.9 = %d, want ≤ 4096", p)
	}
}

// Observability suite: the Prometheus endpoint, the trace echo, the
// slow-query log, the runtime stats block and the structured request
// log. Runs against a real snapshot so the explain traces exercise the
// actual kernels.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gnn/internal/telemetry"
)

func postQuery(t *testing.T, ts string, body map[string]any, out any) int {
	t.Helper()
	return postJSON(t, http.DefaultClient, ts+"/v1/groupnn", body, out)
}

func queryBody(trace bool) map[string]any {
	q := map[string]any{"query": [][]float64{{100, 100}, {200, 250}}, "k": 3}
	if trace {
		q["trace"] = true
	}
	return q
}

// fetchFamilies scrapes /metrics and parses the exposition strictly.
func fetchFamilies(t *testing.T, ts string) map[string]telemetry.Family {
	t.Helper()
	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	out := make(map[string]telemetry.Family, len(fams))
	for _, f := range fams {
		out[f.Name] = f
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	path, _ := buildSnapshot(t, t.TempDir(), "m.snap", 3000, 5)
	_, ts := newSnapshotServer(t, path, nil)

	// A mix of outcomes: served queries on two algorithms, one bad request.
	for i := 0; i < 5; i++ {
		if code := postQuery(t, ts.URL, queryBody(false), nil); code != 200 {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	b := queryBody(false)
	b["algo"] = "mqm"
	if code := postQuery(t, ts.URL, b, nil); code != 200 {
		t.Fatalf("mqm query: status %d", code)
	}
	if code := postQuery(t, ts.URL, map[string]any{"query": [][]float64{}}, nil); code != 400 {
		t.Fatalf("bad query: status %d, want 400", code)
	}

	fams := fetchFamilies(t, ts.URL)

	reqs, ok := fams["gnn_requests_total"]
	if !ok {
		t.Fatal("gnn_requests_total missing")
	}
	find := func(f telemetry.Family, want map[string]string) (float64, bool) {
		for _, s := range f.Samples {
			match := true
			for k, v := range want {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
		return 0, false
	}
	if v, ok := find(reqs, map[string]string{"endpoint": "groupnn", "outcome": "ok"}); !ok || v != 6 {
		t.Errorf("groupnn/ok = %v (found=%v), want 6", v, ok)
	}
	if v, ok := find(reqs, map[string]string{"endpoint": "groupnn", "outcome": "bad_request"}); !ok || v != 1 {
		t.Errorf("groupnn/bad_request = %v (found=%v), want 1", v, ok)
	}

	lat, ok := fams["gnn_request_duration_us"]
	if !ok || lat.Type != "histogram" {
		t.Fatalf("latency histogram missing or wrong type: %+v", lat)
	}
	if v, ok := find(lat, map[string]string{"endpoint": "groupnn", "algo": "mbm", "le": "+Inf"}); !ok || v != 5 {
		t.Errorf("mbm latency count = %v (found=%v), want 5", v, ok)
	}
	if v, ok := find(lat, map[string]string{"endpoint": "groupnn", "algo": "mqm", "le": "+Inf"}); !ok || v != 1 {
		t.Errorf("mqm latency count = %v (found=%v), want 1", v, ok)
	}

	for _, name := range []string{
		"gnn_inflight", "gnn_queue_depth", "gnn_snapshot_generation",
		"gnn_overlay_delta", "gnn_overlay_tombstones",
		"gnn_compaction_generation", "gnn_go_goroutines",
		"gnn_go_heap_bytes", "gnn_process_uptime_seconds",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	if v := fams["gnn_go_goroutines"].Samples[0].Value; v <= 0 {
		t.Errorf("goroutines = %v", v)
	}
}

func TestTraceEchoAndSlowLog(t *testing.T) {
	path, _ := buildSnapshot(t, t.TempDir(), "tr.snap", 3000, 7)
	_, ts := newSnapshotServer(t, path, func(c *Config) { c.SlowLogSize = 4 })

	// Untraced: no explain in the body.
	var plain QueryResponse
	if code := postQuery(t, ts.URL, queryBody(false), &plain); code != 200 {
		t.Fatalf("status %d", code)
	}
	if plain.Explain != nil {
		t.Error("explain echoed without trace:true")
	}

	// Traced: explain present with provenance, stages and counters.
	var traced QueryResponse
	if code := postQuery(t, ts.URL, queryBody(true), &traced); code != 200 {
		t.Fatalf("status %d", code)
	}
	ex := traced.Explain
	if ex == nil {
		t.Fatal("trace:true returned no explain")
	}
	if ex.Algorithm != "MBM" || ex.K != 3 || ex.GroupSize != 2 {
		t.Errorf("explain provenance: %+v", ex)
	}
	if ex.Trace.NodesVisited == 0 || len(ex.Stages) == 0 {
		t.Errorf("explain diagnostics empty: %+v", ex)
	}
	// Same query, same snapshot: the traced results must match the
	// untraced ones bit for bit.
	if len(plain.Results) != len(traced.Results) {
		t.Fatalf("result count diverged: %d vs %d", len(plain.Results), len(traced.Results))
	}
	for i := range plain.Results {
		p, q := plain.Results[i], traced.Results[i]
		same := p.ID == q.ID && p.Dist == q.Dist && len(p.Point) == len(q.Point)
		for d := 0; same && d < len(p.Point); d++ {
			same = p.Point[d] == q.Point[d]
		}
		if !same {
			t.Errorf("result %d diverged: %+v vs %+v", i, p, q)
		}
	}

	// The slow log retains the slowest N with their explains.
	for i := 0; i < 10; i++ {
		postQuery(t, ts.URL, queryBody(false), nil)
	}
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var slow struct {
		Slowest []slowEntry `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Slowest) != 4 {
		t.Fatalf("slowlog retained %d entries, want 4 (cap)", len(slow.Slowest))
	}
	for i, e := range slow.Slowest {
		if i > 0 && e.ElapsedUS > slow.Slowest[i-1].ElapsedUS {
			t.Errorf("slowlog not sorted: entry %d (%d us) > entry %d (%d us)",
				i, e.ElapsedUS, i-1, slow.Slowest[i-1].ElapsedUS)
		}
		if e.Endpoint != "groupnn" || e.Outcome != "ok" || e.Explain == nil {
			t.Errorf("slowlog entry %d malformed: %+v", i, e)
		}
	}
}

func TestSlowLogTopN(t *testing.T) {
	l := newSlowLog(3)
	for _, us := range []int64{10, 50, 20, 5, 100, 1, 60} {
		l.record(slowEntry{ElapsedUS: us})
	}
	got := l.snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	want := []int64{100, 60, 50}
	for i, e := range got {
		if e.ElapsedUS != want[i] {
			t.Errorf("slot %d = %d, want %d", i, e.ElapsedUS, want[i])
		}
	}
	// Fast path: anything under the retained minimum is refused without
	// displacing an entry.
	if l.record(slowEntry{ElapsedUS: 2}) {
		t.Error("fast query admitted into a full slower log")
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := newSlowLog(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.record(slowEntry{ElapsedUS: int64(w*500 + i)})
				if i%97 == 0 {
					l.snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	got := l.snapshot()
	if len(got) != 8 {
		t.Fatalf("retained %d, want 8", len(got))
	}
	// The 8 slowest overall are 3992..3999.
	for _, e := range got {
		if e.ElapsedUS < 3992 {
			t.Errorf("retained %d; the 8 slowest are 3992..3999", e.ElapsedUS)
		}
	}
}

func TestRequestLoggingAndIDs(t *testing.T) {
	path, _ := buildSnapshot(t, t.TempDir(), "log.snap", 500, 11)
	var buf bytes.Buffer
	var mu sync.Mutex
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	_, ts := newSnapshotServer(t, path, func(c *Config) {
		c.Logger = slog.New(slog.NewJSONHandler(lockedWriter, nil))
	})

	body, _ := json.Marshal(queryBody(false))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/groupnn", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "client-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-supplied-42" {
		t.Errorf("inbound request ID not honored: %q", got)
	}

	// A second request without an inbound ID gets a generated one.
	resp2, err := http.Post(ts.URL+"/v1/groupnn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("no generated request ID")
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) < 2 {
		t.Fatalf("expected 2 log lines, got %d: %q", len(lines), lines)
	}
	var rec struct {
		Msg       string `json:"msg"`
		RequestID string `json:"request_id"`
		Method    string `json:"method"`
		Path      string `json:"path"`
		Status    int    `json:"status"`
		ElapsedUS int64  `json:"elapsed_us"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, lines[0])
	}
	if rec.Msg != "request" || rec.RequestID != "client-supplied-42" ||
		rec.Method != "POST" || rec.Path != "/v1/groupnn" || rec.Status != 200 {
		t.Errorf("log line fields: %+v", rec)
	}
}

// writerFunc adapts a function to io.Writer for the logging test.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestStatsRuntimeBlock(t *testing.T) {
	path, _ := buildSnapshot(t, t.TempDir(), "rt.snap", 500, 13)
	_, ts := newSnapshotServer(t, path, nil)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Runtime.Goroutines <= 0 {
		t.Errorf("goroutines = %d", st.Runtime.Goroutines)
	}
	if st.Runtime.HeapBytes == 0 {
		t.Error("heap bytes = 0")
	}
	if st.Runtime.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v", st.Runtime.UptimeSeconds)
	}
}

// TestStatsLatencyMatchesMetrics checks that /v1/stats' latency_us is
// a read of the gnn_request_duration_us histograms /metrics exposes:
// its percentiles are the quantiles a scraper computes from the summed
// cumulative buckets of every endpoint × algorithm series, and its mean
// is their summed _sum over their summed _count.
func TestStatsLatencyMatchesMetrics(t *testing.T) {
	path, _ := buildSnapshot(t, t.TempDir(), "lat.snap", 3000, 19)
	_, ts := newSnapshotServer(t, path, nil)
	for i, algo := range []string{"mbm", "mbm", "mbm", "mqm", "spm", "brute", "mbm", "mqm"} {
		b := queryBody(false)
		b["algo"] = algo
		if code := postQuery(t, ts.URL, b, nil); code != 200 {
			t.Fatalf("query %d (%s): status %d", i, algo, code)
		}
	}
	query := [][]float64{{100, 100}, {200, 250}}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/batch",
		BatchRequest{Queries: [][][]float64{query, query, query}, K: 2}, nil); code != 200 {
		t.Fatalf("batch: status %d", code)
	}

	st := getStats(t, ts)
	lat := fetchFamilies(t, ts.URL)["gnn_request_duration_us"]
	cum := map[string]float64{} // le → cumulative count over every series
	var sum, count float64
	for _, s := range lat.Samples {
		switch s.Name {
		case "gnn_request_duration_us_bucket":
			cum[s.Labels["le"]] += s.Value
		case "gnn_request_duration_us_sum":
			sum += s.Value
		case "gnn_request_duration_us_count":
			count += s.Value
		}
	}
	if count != 9 || cum["+Inf"] != count {
		t.Fatalf("/metrics counts %v served queries (+Inf bucket %v), want 9", count, cum["+Inf"])
	}
	var bounds []float64
	for le := range cum {
		if le != "+Inf" {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatal(err)
			}
			bounds = append(bounds, v)
		}
	}
	sort.Float64s(bounds)
	quantile := func(q float64) uint64 {
		rank := math.Min(math.Floor(q*count), count-1)
		for _, b := range bounds {
			if cum[strconv.FormatFloat(b, 'f', -1, 64)] > rank {
				return uint64(b)
			}
		}
		t.Fatalf("no bucket holds rank %v", rank)
		return 0
	}
	for _, c := range []struct {
		name string
		got  uint64
		q    float64
	}{{"p50", st.LatencyUS.P50, 0.50}, {"p99", st.LatencyUS.P99, 0.99}, {"p999", st.LatencyUS.P999, 0.999}} {
		if want := quantile(c.q); c.got != want {
			t.Errorf("/v1/stats %s = %d µs, /metrics quantile %d µs", c.name, c.got, want)
		}
	}
	if want := sum / count; st.LatencyUS.Mean != want {
		t.Errorf("/v1/stats mean = %v µs, /metrics _sum/_count = %v µs", st.LatencyUS.Mean, want)
	}
}

// TestMetricsUnderLoad scrapes concurrently with a query storm: the
// exposition must stay parseable (histogram invariants hold mid-write).
func TestMetricsUnderLoad(t *testing.T) {
	path, _ := buildSnapshot(t, t.TempDir(), "load.snap", 2000, 17)
	_, ts := newSnapshotServer(t, path, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					postQuery(t, ts.URL, queryBody(false), nil)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		fams := fetchFamilies(t, ts.URL)
		if _, ok := fams["gnn_requests_total"]; !ok {
			t.Error("gnn_requests_total vanished mid-load")
		}
	}
	close(stop)
	wg.Wait()
	// Final consistency: ok-count equals the +Inf latency count summed
	// over algorithms for the groupnn endpoint.
	fams := fetchFamilies(t, ts.URL)
	var okCount, latCount float64
	for _, s := range fams["gnn_requests_total"].Samples {
		if s.Labels["endpoint"] == "groupnn" && s.Labels["outcome"] == "ok" {
			okCount = s.Value
		}
	}
	for _, s := range fams["gnn_request_duration_us"].Samples {
		if s.Labels["endpoint"] == "groupnn" && s.Labels["le"] == "+Inf" {
			latCount += s.Value
		}
	}
	if okCount == 0 || okCount != latCount {
		t.Errorf("ok=%v latency-count=%v; want equal and nonzero", okCount, latCount)
	}
}

// Fault-injection suite for the serving daemon: every test drives one
// of the four engineered failure modes — corrupt hot reload, deadline /
// disconnect propagation, overload admission, and drain-during-traffic
// — and asserts the daemon's externally visible contract (status codes,
// counters, zero collateral failures). Run under -race; the suite is
// deliberately heavy on concurrent clients.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnn"
)

// --- fixtures ---------------------------------------------------------

// buildSnapshot writes a fresh n-point snapshot and returns its path
// and the index it was written from (for differential checks).
func buildSnapshot(t *testing.T, dir, name string, n int, seed int64) (string, *gnn.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]gnn.Point, n)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := ix.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	return path, ix
}

// newSnapshotServer stands up a daemon over a real snapshot file.
func newSnapshotServer(t *testing.T, path string, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{SnapshotPath: path}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// fakeIndex is an injectable Queryable whose queries block for delay
// (respecting the context) — the controllable "slow kernel" the
// deadline, overload and drain tests need. panicEvery>0 makes every
// n-th query panic, for the containment test; infDist answers with a
// +Inf distance, which JSON cannot encode. Writes are accepted and
// change nothing.
type fakeIndex struct {
	delay      time.Duration
	panicEvery int64
	infDist    bool
	calls      atomic.Int64
	closed     atomic.Bool
}

// answer is every fake query: one result, or the injected failure.
func (f *fakeIndex) answer(ctx context.Context) ([]gnn.Result, gnn.Cost, error) {
	n := f.calls.Add(1)
	if f.panicEvery > 0 && n%f.panicEvery == 0 {
		panic("injected kernel panic")
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, gnn.Cost{}, gnn.ErrDeadlineExceeded
			}
			return nil, gnn.Cost{}, gnn.ErrCanceled
		}
	}
	dist := 3.0
	if f.infDist {
		dist = math.Inf(1)
	}
	return []gnn.Result{{Point: gnn.Point{1, 2}, ID: 7, Dist: dist}}, gnn.Cost{NodeAccesses: 1}, nil
}

func (f *fakeIndex) GroupNNExplainContext(ctx context.Context, query []gnn.Point, opts ...gnn.QueryOption) ([]gnn.Result, *gnn.QueryExplain, error) {
	res, cost, err := f.answer(ctx)
	if err != nil {
		return nil, nil, err
	}
	return res, &gnn.QueryExplain{
		Algorithm: "MBM", Aggregate: "sum",
		K: 1, GroupSize: len(query), Cost: cost,
		Stages: []gnn.StageTiming{{Name: "query", Shard: -1, DurationUS: 1}},
	}, nil
}

func (f *fakeIndex) GroupNNBatchContext(ctx context.Context, queries [][]gnn.Point, opts ...gnn.QueryOption) ([]gnn.BatchResult, error) {
	out := make([]gnn.BatchResult, len(queries))
	for i := range queries {
		res, cost, err := f.answer(ctx)
		out[i] = gnn.BatchResult{Results: res, Cost: cost, Err: err}
	}
	return out, nil
}

func (f *fakeIndex) Insert(gnn.Point, int64) error            { return nil }
func (f *fakeIndex) Delete(gnn.Point, int64) bool             { return false }
func (f *fakeIndex) StartCompactor(gnn.CompactorConfig) error { return nil }
func (f *fakeIndex) Stats() gnn.Stats                         { return gnn.Stats{Points: 1, Dim: 2} }
func (f *fakeIndex) Close() error                             { f.closed.Store(true); return nil }

// newFakeServer stands up a daemon over an injected Queryable, skipping
// the snapshot open (package-internal plumbing; the HTTP surface is the
// real one).
func newFakeServer(t *testing.T, q Queryable, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{SnapshotPath: "fake.snap"}
	if mut != nil {
		mut(&cfg)
	}
	s := &Server{cfg: cfg.withDefaults()}
	s.sem = make(chan struct{}, s.cfg.MaxInflight)
	s.live.Store(&handle{q: q, path: "fake.snap", generation: 1, stats: q.Stats(), loadedAt: time.Now()})
	s.mux = s.routes()
	s.ready.Store(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v and decodes the JSON response body into out (if
// non-nil), returning the status code.
func postJSON(t *testing.T, client *http.Client, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("decoding response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// --- baseline: the happy path over a real snapshot --------------------

// TestServeQueryEquivalence checks the HTTP path returns exactly what
// the library returns for the same query, for single and batch calls.
func TestServeQueryEquivalence(t *testing.T) {
	dir := t.TempDir()
	path, ix := buildSnapshot(t, dir, "a.snap", 3000, 11)
	_, ts := newSnapshotServer(t, path, nil)

	query := [][]float64{{100, 100}, {200, 250}, {160, 140}}
	for _, algo := range []string{"mqm", "spm", "mbm", "brute"} {
		var got QueryResponse
		status := postJSON(t, ts.Client(), ts.URL+"/v1/groupnn",
			QueryRequest{Query: query, K: 5, Algo: algo}, &got)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", algo, status)
		}
		want, err := ix.GroupNN([]gnn.Point{{100, 100}, {200, 250}, {160, 140}}, gnn.WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("%s: %d results, want %d", algo, len(got.Results), len(want))
		}
		for i := range want {
			if got.Results[i].ID != want[i].ID || got.Results[i].Dist != want[i].Dist {
				t.Fatalf("%s: result %d = %+v, want %+v", algo, i, got.Results[i], want[i])
			}
		}
		if got.Generation != 1 {
			t.Fatalf("generation %d on first load", got.Generation)
		}
	}

	var batch BatchResponse
	status := postJSON(t, ts.Client(), ts.URL+"/v1/batch",
		BatchRequest{Queries: [][][]float64{query, query}, K: 2}, &batch)
	if status != http.StatusOK || len(batch.Entries) != 2 {
		t.Fatalf("batch: status %d entries %d", status, len(batch.Entries))
	}
	for i, e := range batch.Entries {
		if e.Error != "" || len(e.Results) != 2 {
			t.Fatalf("batch entry %d: %+v", i, e)
		}
	}
}

// TestServeBadRequests checks the 400 surface: malformed JSON, empty
// group, unknown algorithm, oversized body.
func TestServeBadRequests(t *testing.T) {
	dir := t.TempDir()
	path, _ := buildSnapshot(t, dir, "a.snap", 500, 12)
	_, ts := newSnapshotServer(t, path, func(c *Config) { c.MaxBodyBytes = 1 << 10 })

	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{"query": [[1,2]`},
		{"empty group", `{"query": []}`},
		{"unknown algo", `{"query": [[1,2]], "algo": "dijkstra"}`},
		{"unknown field", `{"query": [[1,2]], "frobnicate": true}`},
		{"ragged points", `{"query": [[1,2],[3]]}`},
		{"oversized", `{"query": [[` + strings.Repeat("1,", 2000) + `1]]}`},
		// Finite, but its squared distances would overflow to +Inf.
		{"out-of-range coordinate", `{"query": [[1e200,0]], "k": 3}`},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/groupnn", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if s := getStats(t, ts); s.Requests.BadReq != uint64(len(cases)) {
		t.Fatalf("bad_request counter %d, want %d", s.Requests.BadReq, len(cases))
	}
}

// TestServeUnencodableResult: JSON cannot represent a +Inf distance.
// The index rejects the coordinates whose distances overflow, so an
// injected index answers with one. Such a response must answer with an
// error status and a JSON body, not a 200 with an empty body, and count
// as a failed query: not served, and in the slow log with outcome
// "error", never "ok".
func TestServeUnencodableResult(t *testing.T) {
	_, ts := newFakeServer(t, &fakeIndex{infDist: true}, nil)
	for _, c := range []struct{ url, body string }{
		{"/v1/groupnn", `{"query": [[3,4],[1,2]], "k": 2}`},
		{"/v1/batch", `{"queries": [[[3,4],[1,2]]], "k": 2}`},
	} {
		resp, err := ts.Client().Post(ts.URL+c.url, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.url, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.url, err)
		}
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: status 200 for an unencodable result (body %q)", c.url, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: status %d, body %q is not an error response: %v", c.url, resp.StatusCode, body, err)
		}
	}
	if st := getStats(t, ts); st.Requests.Served != 0 {
		t.Fatalf("served %d after two unencodable answers, want 0", st.Requests.Served)
	}
	resp, err := ts.Client().Get(ts.URL + "/debug/slowlog")
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
	if len(slow.Slowest) != 2 {
		t.Fatalf("slow log holds %d entries, want both queries", len(slow.Slowest))
	}
	for _, e := range slow.Slowest {
		if e.Outcome != "error" {
			t.Fatalf("slow log entry %s has outcome %q, want error", e.Endpoint, e.Outcome)
		}
	}
}

// --- failure mode 1: corrupt hot reload -------------------------------

// TestReloadFaults is the corrupt-reload gate: truncated and bit-flipped
// snapshots are rejected (409, failure surfaced in stats), the live
// index keeps answering with zero failed queries throughout, and a good
// snapshot then swaps in cleanly under the same query storm.
func TestReloadFaults(t *testing.T) {
	dir := t.TempDir()
	pathA, _ := buildSnapshot(t, dir, "a.snap", 3000, 21)
	pathB, _ := buildSnapshot(t, dir, "b.snap", 4000, 22)
	srv, ts := newSnapshotServer(t, pathA, nil)

	// Corrupt variants of B.
	data, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "trunc.snap")
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flip.snap")
	bad := bytes.Clone(data)
	bad[len(bad)/2] ^= 0x40 // flip a payload bit: caught by section CRC
	if err := os.WriteFile(flipped, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	// Query storm for the whole scenario; every response must be 200.
	var failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status := postJSON(t, ts.Client(), ts.URL+"/v1/groupnn",
					QueryRequest{Query: [][]float64{{500, 500}, {510, 520}}, K: 3}, nil)
				if status != http.StatusOK {
					failures.Add(1)
				}
			}
		}()
	}

	reload := func(path string) int {
		return postJSON(t, ts.Client(), ts.URL+"/admin/reload", ReloadRequest{Path: path}, nil)
	}
	if status := reload(truncated); status != http.StatusConflict {
		t.Errorf("truncated reload: status %d, want 409", status)
	}
	if status := reload(flipped); status != http.StatusConflict {
		t.Errorf("bit-flipped reload: status %d, want 409", status)
	}
	if status := reload(filepath.Join(dir, "missing.snap")); status != http.StatusConflict {
		t.Errorf("missing-file reload: status %d, want 409", status)
	}
	st := getStats(t, ts)
	if st.Reload.Failed != 3 || st.Reload.OK != 0 {
		t.Errorf("reload counters after faults: %+v", st.Reload)
	}
	if st.Reload.LastError == "" || st.Index.Generation != 1 {
		t.Errorf("fault not surfaced: lastError=%q generation=%d", st.Reload.LastError, st.Index.Generation)
	}

	// Good reload under the same storm: swaps live, old drains.
	var ok map[string]any
	if status := postJSON(t, ts.Client(), ts.URL+"/admin/reload", ReloadRequest{Path: pathB}, &ok); status != http.StatusOK {
		t.Fatalf("good reload: status %d", status)
	}
	st = getStats(t, ts)
	if st.Reload.OK != 1 || st.Reload.LastError != "" {
		t.Errorf("reload stats after success: %+v", st.Reload)
	}
	if st.Index.Points != 4000 || st.Index.Path != pathB {
		t.Errorf("live index after reload: %+v", st.Index)
	}

	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed during reload faults; want 0", n)
	}
	// SIGHUP path reuses the same entry point.
	if _, err := srv.Reload(""); err != nil {
		t.Fatalf("empty-path reload (SIGHUP) failed: %v", err)
	}
	if st := getStats(t, ts); st.Reload.OK != 2 {
		t.Fatalf("SIGHUP reload not counted: %+v", st.Reload)
	}
}

// --- failure mode 2: deadlines and disconnects ------------------------

// TestDeadlinePropagation checks a request whose deadline fires
// mid-query returns 504 with the typed error within 50ms of the
// deadline, and the daemon counts it.
func TestDeadlinePropagation(t *testing.T) {
	fake := &fakeIndex{delay: 10 * time.Second}
	_, ts := newFakeServer(t, fake, nil)

	const timeoutMS = 30
	start := time.Now()
	var out ErrorResponse
	status := postJSON(t, ts.Client(), ts.URL+"/v1/groupnn",
		QueryRequest{Query: [][]float64{{1, 2}}, TimeoutMS: timeoutMS}, &out)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	if !strings.Contains(out.Error, "deadline") {
		t.Fatalf("error %q does not name the deadline", out.Error)
	}
	deadline := time.Duration(timeoutMS) * time.Millisecond
	if elapsed > deadline+50*time.Millisecond {
		t.Fatalf("response took %v, want within 50ms of the %v deadline", elapsed, deadline)
	}
	if s := getStats(t, ts); s.Requests.Deadlines != 1 {
		t.Fatalf("deadline counter %d, want 1", s.Requests.Deadlines)
	}
}

// TestSlowLorisRealKernel is the end-to-end deadline test against a
// real traversal (not the fake): a tiny timeout on a large brute-force
// scan must come back 504 promptly, with partial cost accounted.
func TestSlowLorisRealKernel(t *testing.T) {
	dir := t.TempDir()
	path, _ := buildSnapshot(t, dir, "big.snap", 150000, 31)
	_, ts := newSnapshotServer(t, path, nil)

	// Many sequential brute-force queries under a 1ms budget: each must
	// fail typed and fast, never pin the worker for the full scan.
	query := make([][]float64, 64)
	for i := range query {
		query[i] = []float64{float64(i), float64(i)}
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		var out ErrorResponse
		status := postJSON(t, ts.Client(), ts.URL+"/v1/groupnn",
			QueryRequest{Query: query, K: 64, Algo: "brute", TimeoutMS: 1}, &out)
		// A 1ms budget may round to done-before-start (504) only; 200 is
		// impossible on this size at brute force × 64 query points unless
		// the machine is absurdly fast — accept it but require typed
		// failure otherwise.
		if status != http.StatusGatewayTimeout && status != http.StatusOK {
			t.Fatalf("query %d: status %d body %q", i, status, out.Error)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("5 deadline-bounded queries took %v; cancellation is not unwinding", elapsed)
	}
}

// TestClientDisconnect checks a dropped connection cancels the running
// query: the daemon counts a cancellation and the worker unblocks.
func TestClientDisconnect(t *testing.T) {
	fake := &fakeIndex{delay: 10 * time.Second}
	s, ts := newFakeServer(t, fake, nil)

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(QueryRequest{Query: [][]float64{{1, 2}}, TimeoutMS: 60_000})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/groupnn", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		done <- err
	}()
	// Wait for the query to be inflight, then hang up.
	waitFor(t, time.Second, func() bool { return s.inflight.Load() == 1 })
	cancel()
	if err := <-done; err == nil {
		t.Fatal("expected client-side error after cancel")
	}
	waitFor(t, time.Second, func() bool { return getStats(t, ts).Requests.Canceled == 1 })
	waitFor(t, time.Second, func() bool { return s.inflight.Load() == 0 })
}

// TestPanicContainment checks a panicking kernel becomes a 500 and the
// daemon keeps serving (same connection pool, subsequent queries fine).
func TestPanicContainment(t *testing.T) {
	fake := &fakeIndex{panicEvery: 2} // every 2nd query panics
	_, ts := newFakeServer(t, fake, nil)

	var got [4]int
	for i := range got {
		got[i] = postJSON(t, ts.Client(), ts.URL+"/v1/groupnn",
			QueryRequest{Query: [][]float64{{1, 2}}}, nil)
	}
	want := [4]int{200, 500, 200, 500}
	if got != want {
		t.Fatalf("status sequence %v, want %v", got, want)
	}
	if s := getStats(t, ts); s.Requests.Panics != 2 || s.Requests.Served != 2 {
		t.Fatalf("counters: %+v", s.Requests)
	}
}

// --- failure mode 3: overload -----------------------------------------

// TestOverloadAdmission floods a 2-slot daemon with slow queries and
// checks the contract: exactly the admitted requests run, the rest get
// 429 + Retry-After within the queue-wait bound — never an unbounded
// queue — and the daemon recovers to serve normally afterwards.
func TestOverloadAdmission(t *testing.T) {
	fake := &fakeIndex{delay: 300 * time.Millisecond}
	_, ts := newFakeServer(t, fake, func(c *Config) {
		c.MaxInflight = 2
		c.QueueWait = 50 * time.Millisecond
	})

	const clients = 20
	var ok, rejected atomic.Int64
	var slowest atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			body, _ := json.Marshal(QueryRequest{Query: [][]float64{{1, 2}}, TimeoutMS: 5_000})
			resp, err := ts.Client().Post(ts.URL+"/v1/groupnn", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("transport error: %v", err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				// A rejection must come back within the queue-wait bound
				// (plus slack), not after queuing behind the slow queries.
				if e := time.Since(start); e > time.Second {
					t.Errorf("429 took %v; queue is not bounded", e)
				}
			default:
				t.Errorf("status %d", resp.StatusCode)
			}
			if e := int64(time.Since(start)); e > slowest.Load() {
				slowest.Store(e)
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 || rejected.Load() == 0 || ok.Load()+rejected.Load() != clients {
		t.Fatalf("ok=%d rejected=%d (want both >0, summing to %d)", ok.Load(), rejected.Load(), clients)
	}
	s := getStats(t, ts)
	if s.Requests.Rejected != uint64(rejected.Load()) {
		t.Fatalf("rejected counter %d, want %d", s.Requests.Rejected, rejected.Load())
	}
	// Recovery: with the storm gone, a query sails through.
	fake.delay = 0
	if status := postJSON(t, ts.Client(), ts.URL+"/v1/groupnn",
		QueryRequest{Query: [][]float64{{1, 2}}}, nil); status != http.StatusOK {
		t.Fatalf("post-storm query: status %d", status)
	}
}

// --- failure mode 4: drain and shutdown -------------------------------

// TestGracefulDrain runs the SIGTERM sequence against live traffic:
// readiness flips first, inflight requests complete with 200 during the
// drain, late arrivals get 503, and Close unmaps only after the drain.
func TestGracefulDrain(t *testing.T) {
	fake := &fakeIndex{delay: 200 * time.Millisecond}
	s, ts := newFakeServer(t, fake, nil)

	// Slow query inflight before the drain starts.
	inflight := make(chan int, 1)
	go func() {
		inflight <- postJSON(t, ts.Client(), ts.URL+"/v1/groupnn",
			QueryRequest{Query: [][]float64{{1, 2}}, TimeoutMS: 5_000}, nil)
	}()
	waitFor(t, time.Second, func() bool { return s.inflight.Load() == 1 })

	// SIGTERM step 1: readiness off.
	s.NotReady()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	// healthz stays green: the process is alive, just not accepting.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", resp.StatusCode)
	}
	// New queries are refused while draining.
	if status := postJSON(t, ts.Client(), ts.URL+"/v1/groupnn",
		QueryRequest{Query: [][]float64{{1, 2}}}, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503", status)
	}
	// The inflight request still completes successfully.
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("inflight request during drain: status %d, want 200", status)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !fake.closed.Load() {
		t.Fatal("index not closed after drain")
	}
}

// TestDrainRealSnapshot is TestGracefulDrain end-to-end over a real
// mapped snapshot and real http.Server.Shutdown: inflight queries all
// land 200, the mapping is unmapped only after, and a post-close query
// through a stale handle fails typed rather than faulting.
func TestDrainRealSnapshot(t *testing.T) {
	dir := t.TempDir()
	path, _ := buildSnapshot(t, dir, "a.snap", 5000, 41)
	srv, err := New(Config{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())

	var failures atomic.Int64
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
				}
				status := postJSON(t, hs.Client(), hs.URL+"/v1/groupnn",
					QueryRequest{Query: [][]float64{{500, 500}, {490, 510}}, K: 2}, nil)
				if status != http.StatusOK && status != http.StatusServiceUnavailable {
					failures.Add(1)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	srv.NotReady()
	close(stop)
	wg.Wait()
	hs.Close() // httptest.Close waits for outstanding handlers — the drain
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed during drain; want only 200/503", n)
	}
	// Stale access after close: typed error, no fault.
	h := srv.liveHandle()
	if _, _, err := h.q.GroupNNExplainContext(context.Background(), []gnn.Point{{1, 2}}); !errors.Is(err, gnn.ErrSnapshotClosed) {
		t.Fatalf("query after close: %v, want ErrSnapshotClosed", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpenEitherKind covers the one open path: a plain and a sharded
// snapshot both serve, and junk fails with ErrSnapshotBadMagic.
func TestOpenEitherKind(t *testing.T) {
	dir := t.TempDir()
	plain, _ := buildSnapshot(t, dir, "p.snap", 100, 51)
	if _, err := New(Config{SnapshotPath: plain}); err != nil {
		t.Fatalf("plain open: %v", err)
	}

	rng := rand.New(rand.NewSource(52))
	pts := make([]gnn.Point, 500)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64(), rng.Float64()}
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, 3, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharded := filepath.Join(dir, "s.snap")
	if err := sx.WriteSnapshotFile(sharded); err != nil {
		t.Fatal(err)
	}
	sx.Close()
	srv, err := New(Config{SnapshotPath: sharded})
	if err != nil {
		t.Fatalf("sharded open: %v", err)
	}
	if st := srv.liveHandle().stats; st.Shards != 3 {
		t.Fatalf("sharded handle stats: %+v", st)
	}
	srv.Close()

	junk := filepath.Join(dir, "junk.snap")
	if err := os.WriteFile(junk, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{SnapshotPath: junk}); !errors.Is(err, gnn.ErrSnapshotBadMagic) {
		t.Fatalf("junk open: %v, want ErrSnapshotBadMagic", err)
	}
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"gnn"
)

// StatusClientClosedRequest is the (nginx-convention) status for a
// query abandoned because the client went away mid-traversal.
const StatusClientClosedRequest = 499

// QueryRequest is the body of POST /v1/groupnn.
type QueryRequest struct {
	// Query is the group of query points, [[x,y], ...].
	Query [][]float64 `json:"query"`
	// K is the number of neighbors (default 1).
	K int `json:"k,omitempty"`
	// Algo selects the kernel: "mqm", "spm", "mbm" (default), "brute".
	Algo string `json:"algo,omitempty"`
	// Agg selects the aggregate: "sum" (default), "max", "min".
	Agg string `json:"agg,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// clamped to the configured maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace asks for the query's explain report (stage timings, pruning
	// counters, provenance) to be echoed in the response. Collecting it
	// never changes the results.
	Trace bool `json:"trace,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: the shared options apply
// to every group.
type BatchRequest struct {
	Queries   [][][]float64 `json:"queries"`
	K         int           `json:"k,omitempty"`
	Algo      string        `json:"algo,omitempty"`
	Agg       string        `json:"agg,omitempty"`
	TimeoutMS int           `json:"timeout_ms,omitempty"`
}

// ResultJSON is one neighbor in a response.
type ResultJSON struct {
	ID    int64     `json:"id"`
	Point []float64 `json:"point"`
	Dist  float64   `json:"dist"`
}

// CostJSON is a query's I/O cost in a response.
type CostJSON struct {
	NodeAccesses    int64 `json:"node_accesses"`
	LogicalAccesses int64 `json:"logical_accesses"`
	BufferHits      int64 `json:"buffer_hits"`
}

// QueryResponse is the body of a successful /v1/groupnn response.
// Explain is present only when the request set "trace": true.
type QueryResponse struct {
	Results    []ResultJSON      `json:"results"`
	Cost       CostJSON          `json:"cost"`
	ElapsedUS  int64             `json:"elapsed_us"`
	Generation uint64            `json:"generation"`
	Explain    *gnn.QueryExplain `json:"explain,omitempty"`
}

// BatchEntryJSON is one query's outcome inside a /v1/batch response.
// Queries fail independently; Error is empty on success.
type BatchEntryJSON struct {
	Results []ResultJSON `json:"results,omitempty"`
	Cost    CostJSON     `json:"cost"`
	Error   string       `json:"error,omitempty"`
}

// BatchResponse is the body of a /v1/batch response.
type BatchResponse struct {
	Entries    []BatchEntryJSON `json:"entries"`
	ElapsedUS  int64            `json:"elapsed_us"`
	Generation uint64           `json:"generation"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// MutateRequest is the body of POST /v1/insert and /v1/delete.
type MutateRequest struct {
	Point []float64 `json:"point"`
	ID    int64     `json:"id"`
}

// MutateResponse reports a write's outcome. Deleted is meaningful only
// for /v1/delete (false = no live (point, id) occurrence existed).
// Delta and Tombstones echo the overlay size after the write so a
// client can observe compaction progress without polling /v1/stats.
type MutateResponse struct {
	Deleted    bool   `json:"deleted"`
	Delta      int    `json:"delta"`
	Tombstones int    `json:"tombstones"`
	Generation uint64 `json:"generation"`
}

// ReloadRequest is the body of POST /admin/reload. An empty path
// reloads the live handle's own file.
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// Index describes the live snapshot.
	Index struct {
		Path       string `json:"path"`
		Generation uint64 `json:"generation"`
		Points     int    `json:"points"`
		Dim        int    `json:"dim"`
		Shards     int    `json:"shards"`
		ArenaBytes int64  `json:"arena_bytes"`
		LoadedAt   string `json:"loaded_at"`
	} `json:"index"`
	// Requests are the monotonic outcome counters.
	Requests struct {
		Served    uint64 `json:"served"`
		Rejected  uint64 `json:"rejected"`
		Canceled  uint64 `json:"canceled"`
		Deadlines uint64 `json:"deadline_exceeded"`
		Panics    uint64 `json:"panics"`
		BadReq    uint64 `json:"bad_request"`
		Inflight  int64  `json:"inflight"`
		Mutations uint64 `json:"mutations"`
	} `json:"requests"`
	// Reload reports hot-reload health; LastError is the most recent
	// rejected reload's message, empty after a success.
	Reload struct {
		OK        uint64 `json:"ok"`
		Failed    uint64 `json:"failed"`
		LastError string `json:"last_error,omitempty"`
	} `json:"reload"`
	// LatencyUS summarises served-query latency in microseconds, read
	// from the gnn_request_duration_us histograms of /metrics (every
	// endpoint and algorithm, bucket counts summed). Each percentile is
	// the upper bound of the power-of-2 bucket (2^(i-1), 2^i] holding it,
	// so a latency of exactly 2^i µs reports 2^i.
	LatencyUS struct {
		Mean float64 `json:"mean"`
		P50  uint64  `json:"p50"`
		P99  uint64  `json:"p99"`
		P999 uint64  `json:"p999"`
	} `json:"latency_us"`
	// Overlay reports the live write-path state: pending overlay size,
	// tombstoned base occurrences, and background-compaction health.
	Overlay struct {
		Delta             int    `json:"delta"`
		Tombstones        int    `json:"tombstones"`
		CompactionGen     uint64 `json:"compaction_gen"`
		LastCompactionUS  int64  `json:"last_compaction_us"`
		LastCompactionErr string `json:"last_compaction_error,omitempty"`
	} `json:"overlay"`
	// Runtime reports basic process health so operators don't need a
	// sidecar exporter for it.
	Runtime struct {
		Goroutines    int     `json:"goroutines"`
		HeapBytes     uint64  `json:"heap_bytes"`
		GCPauseP99US  float64 `json:"gc_pause_p99_us"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	} `json:"runtime"`
}

// routes mounts every endpoint. Query endpoints pass through the
// admission and panic-containment wrapper; control-plane endpoints —
// including /metrics, the slow-query log and the pprof handlers — are
// never throttled (an overloaded server must still answer its health
// checks, surface its telemetry and accept a reload).
func (s *Server) routes() *http.ServeMux {
	s.initTelemetry()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/groupnn", s.instrument(epGroupNN, s.guard(s.handleGroupNN)))
	mux.HandleFunc("POST /v1/batch", s.instrument(epBatch, s.guard(s.handleBatch)))
	mux.HandleFunc("POST /v1/insert", s.instrument(epInsert, s.guard(s.handleInsert)))
	mux.HandleFunc("POST /v1/delete", s.instrument(epDelete, s.guard(s.handleDelete)))
	mux.HandleFunc("GET /v1/stats", s.instrument(epNone, s.handleStats))
	mux.HandleFunc("GET /healthz", s.instrument(epNone, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("GET /readyz", s.instrument(epNone, func(w http.ResponseWriter, r *http.Request) {
		if s.ready.Load() {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	}))
	mux.HandleFunc("POST /admin/reload", s.instrument(epAdmin, s.handleReload))
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowLog)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// handleSlowLog serves the retained slowest queries, slowest first.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"slowest": s.slow.snapshot()})
}

// guard wraps a query handler with panic containment and admission
// control, in that order: a panic anywhere past admission still
// releases the slot (the release is deferred before the handler runs),
// and the recover converts it to a 500 instead of killing the process.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.stats.panics.Add(1)
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		if !s.ready.Load() {
			writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		enqueued := time.Now()
		release, err := s.admit(r.Context())
		if err != nil {
			if errors.Is(err, errSaturated) {
				s.stats.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "server at capacity; retry")
				return
			}
			if errors.Is(err, context.DeadlineExceeded) {
				s.stats.deadlines.Add(1)
				writeError(w, http.StatusGatewayTimeout, "deadline expired while queued")
				return
			}
			// The client gave up while queued.
			s.stats.canceled.Add(1)
			writeError(w, StatusClientClosedRequest, "client closed request while queued")
			return
		}
		defer release()
		// The admission wait becomes the explain report's first stage, so
		// a trace distinguishes "slow kernel" from "slow to get a slot".
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyAdmissionWait, time.Since(enqueued)))
		s.stats.inflight.Add(1)
		defer s.stats.inflight.Add(-1)
		h(w, r)
	}
}

func (s *Server) handleGroupNN(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	opts, query, ok := s.buildQuery(w, req.Query, req.K, req.Algo, req.Agg)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	h := s.liveHandle()
	start := time.Now()
	// Every query runs explained: the probe is a few counter increments
	// and clock reads, and having the trace in hand is what lets the
	// slow-query log capture a query that only turned out slow at the
	// end. Results are bit-identical to the untraced call.
	res, ex, err := h.q.GroupNNExplainContext(ctx, query, opts...)
	for s.displaced(h, err) {
		h = s.liveHandle()
		res, ex, err = h.q.GroupNNExplainContext(ctx, query, opts...)
	}
	elapsed := time.Since(start)
	if ex != nil {
		if wait := admissionWaitFrom(r.Context()); wait > 0 {
			ex.Stages = append([]gnn.StageTiming{
				{Name: "admission", Shard: -1, DurationUS: wait.Microseconds()},
			}, ex.Stages...)
		}
	}
	entry := slowEntry{
		Time:      slowStamp(time.Now()),
		RequestID: requestIDFrom(r.Context()),
		Endpoint:  "groupnn",
		ElapsedUS: elapsed.Microseconds(),
		K:         max(req.K, 1),
		GroupSize: len(query),
		Algo:      algoNames[parseAlgoID(strings.ToLower(req.Algo))],
		Agg:       normAgg(req.Agg),
		Explain:   ex,
	}
	if err != nil {
		// Failed queries compete for the slow log too — a deadline blowout
		// is exactly the kind of query an operator wants to see.
		entry.Outcome = outcomeLabel(err)
		if s.slow.record(entry) {
			s.metrics.slowLogged.Inc()
		}
		s.failQuery(w, err)
		return
	}
	s.stats.served.Add(1)
	us := uint64(elapsed.Microseconds())
	s.metrics.observeQuery(epGroupNN, parseAlgoID(strings.ToLower(req.Algo)), us)
	entry.Outcome = "ok"
	if s.slow.record(entry) {
		s.metrics.slowLogged.Inc()
	}
	var cost gnn.Cost
	if ex != nil {
		cost = ex.Cost
	}
	resp := QueryResponse{
		Results:    toJSONResults(res),
		Cost:       toJSONCost(cost),
		ElapsedUS:  elapsed.Microseconds(),
		Generation: h.generation,
	}
	if req.Trace {
		resp.Explain = ex
	}
	writeJSON(w, http.StatusOK, resp)
}

// normAgg canonicalises a request's aggregate label.
func normAgg(agg string) string {
	a := strings.ToLower(agg)
	if a == "" {
		return "sum"
	}
	return a
}

// outcomeLabel names a query error for the slow log.
func outcomeLabel(err error) string {
	switch {
	case errors.Is(err, gnn.ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, gnn.ErrCanceled):
		return "canceled"
	default:
		return "error"
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.badRequest(w, "empty batch")
		return
	}
	queries := make([][]gnn.Point, len(req.Queries))
	for i, q := range req.Queries {
		pts, err := toPoints(q)
		if err != nil {
			s.badRequest(w, fmt.Sprintf("query %d: %v", i, err))
			return
		}
		queries[i] = pts
	}
	opts, ok := s.buildOptions(w, req.K, req.Algo, req.Agg)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	h := s.liveHandle()
	start := time.Now()
	out, err := h.q.GroupNNBatchContext(ctx, queries, opts...)
	// A query that finds h closed fails in its own entry, not in err: the
	// whole batch runs again on the live handle, so every entry answers
	// from the one generation the response reports.
	for err == nil && s.displaced(h, closedEntry(out)) {
		h = s.liveHandle()
		out, err = h.q.GroupNNBatchContext(ctx, queries, opts...)
	}
	elapsed := time.Since(start)
	if err != nil {
		// The whole batch was cut short by the request's own context;
		// classify like a single query (entries carry the per-query
		// detail, but the client is gone or out of time either way).
		s.failQuery(w, err)
		return
	}
	entries := make([]BatchEntryJSON, len(out))
	for i, br := range out {
		entries[i].Cost = toJSONCost(br.Cost)
		if br.Err != nil {
			entries[i].Error = br.Err.Error()
			continue
		}
		entries[i].Results = toJSONResults(br.Results)
	}
	s.stats.served.Add(1)
	us := uint64(elapsed.Microseconds())
	s.metrics.observeQuery(epBatch, parseAlgoID(strings.ToLower(req.Algo)), us)
	// A batch competes for the slow log as one unit: there is no
	// per-query explain, so GroupSize reports how many groups it carried.
	if s.slow.record(slowEntry{
		Time:      slowStamp(time.Now()),
		RequestID: requestIDFrom(r.Context()),
		Endpoint:  "batch",
		ElapsedUS: elapsed.Microseconds(),
		K:         max(req.K, 1),
		GroupSize: len(queries),
		Algo:      algoNames[parseAlgoID(strings.ToLower(req.Algo))],
		Agg:       normAgg(req.Agg),
		Outcome:   "ok",
	}) {
		s.metrics.slowLogged.Inc()
	}
	writeJSON(w, http.StatusOK, BatchResponse{
		Entries:    entries,
		ElapsedUS:  elapsed.Microseconds(),
		Generation: h.generation,
	})
}

// displaced reports whether a request must run again on the live handle:
// err says h was closed, and h is no longer live. A reload closes the
// handle it displaces on a goroutine, so a request that loaded h just
// before the swap can find it closed; running it again on the handle
// that replaced h keeps the reload invisible to clients. Only a shutdown
// closes the live handle itself, and then the request fails with 503.
func (s *Server) displaced(h *handle, err error) bool {
	return errors.Is(err, gnn.ErrSnapshotClosed) && s.liveHandle() != h
}

// closedEntry returns the first batch entry error saying the handle was
// closed, or nil.
func closedEntry(out []gnn.BatchResult) error {
	for _, br := range out {
		if errors.Is(br.Err, gnn.ErrSnapshotClosed) {
			return br.Err
		}
	}
	return nil
}

// mutableHandle resolves the live handle's write surface, or fails the
// request. Both index kinds are mutable; the assertion only misses if a
// future Queryable implementation opts out of writes.
func (s *Server) mutableHandle(w http.ResponseWriter) (*handle, Mutable, bool) {
	h := s.liveHandle()
	m, ok := h.q.(Mutable)
	if !ok {
		writeError(w, http.StatusNotImplemented, "live index does not accept writes")
		return nil, nil, false
	}
	return h, m, true
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Point) == 0 {
		s.badRequest(w, "empty point")
		return
	}
	h, m, ok := s.mutableHandle(w)
	if !ok {
		return
	}
	err := m.Insert(gnn.Point(req.Point), req.ID)
	for s.displaced(h, err) {
		if h, m, ok = s.mutableHandle(w); !ok {
			return
		}
		err = m.Insert(gnn.Point(req.Point), req.ID)
	}
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	s.stats.mutations.Add(1)
	st := h.q.Stats()
	writeJSON(w, http.StatusOK, MutateResponse{
		Delta: st.Delta, Tombstones: st.Tombstones, Generation: h.generation,
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if len(req.Point) == 0 {
		s.badRequest(w, "empty point")
		return
	}
	h, m, ok := s.mutableHandle(w)
	if !ok {
		return
	}
	deleted := m.Delete(gnn.Point(req.Point), req.ID)
	// A closed index deletes nothing and says only false, so a delete that
	// missed on a handle a reload displaced runs again on the live one.
	for !deleted && s.liveHandle() != h {
		if h, m, ok = s.mutableHandle(w); !ok {
			return
		}
		deleted = m.Delete(gnn.Point(req.Point), req.ID)
	}
	s.stats.mutations.Add(1)
	st := h.q.Stats()
	writeJSON(w, http.StatusOK, MutateResponse{
		Deleted: deleted,
		Delta:   st.Delta, Tombstones: st.Tombstones, Generation: h.generation,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	h := s.liveHandle()
	// Stats are taken live, not from the load-time snapshot: Points moves
	// with writes and the Overlay section must reflect the compactor's
	// current state.
	st := h.q.Stats()
	resp.Index.Path = h.path
	resp.Index.Generation = h.generation
	resp.Index.Points = st.Points
	resp.Index.Dim = st.Dim
	resp.Index.Shards = st.Shards
	resp.Index.ArenaBytes = st.ArenaBytes
	resp.Index.LoadedAt = h.loadedAt.UTC().Format(time.RFC3339)

	resp.Overlay.Delta = st.Delta
	resp.Overlay.Tombstones = st.Tombstones
	resp.Overlay.CompactionGen = st.CompactGen
	resp.Overlay.LastCompactionUS = st.LastCompaction.Microseconds()
	resp.Overlay.LastCompactionErr = st.LastCompactionError

	resp.Requests.Served = s.stats.served.Load()
	resp.Requests.Rejected = s.stats.rejected.Load()
	resp.Requests.Canceled = s.stats.canceled.Load()
	resp.Requests.Deadlines = s.stats.deadlines.Load()
	resp.Requests.Panics = s.stats.panics.Load()
	resp.Requests.BadReq = s.stats.badReq.Load()
	resp.Requests.Inflight = s.stats.inflight.Load()
	resp.Requests.Mutations = s.stats.mutations.Load()

	resp.Reload.OK = s.stats.reloads.Load()
	resp.Reload.Failed = s.stats.reloadsFailed.Load()
	if msg := s.stats.lastReloadErr.Load(); msg != nil {
		resp.Reload.LastError = *msg
	}

	lat := s.metrics.servedLatency()
	resp.LatencyUS.Mean = lat.MeanUS()
	resp.LatencyUS.P50, resp.LatencyUS.P99, resp.LatencyUS.P999 = lat.Quantile(0.50), lat.Quantile(0.99), lat.Quantile(0.999)

	rt := s.runtime.sample()
	resp.Runtime.Goroutines = runtime.NumGoroutine()
	resp.Runtime.HeapBytes = rt.heapBytes
	resp.Runtime.GCPauseP99US = rt.gcPauseP99US
	resp.Runtime.UptimeSeconds = time.Since(s.startedAt).Seconds()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	if r.ContentLength != 0 {
		if !s.readJSON(w, r, &req) {
			return
		}
	}
	h, err := s.Reload(req.Path)
	if err != nil {
		// 409: the daemon is healthy and still serving the previous
		// generation; only the proposed snapshot was rejected.
		writeError(w, http.StatusConflict, fmt.Sprintf("reload rejected, serving previous snapshot: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": h.generation,
		"path":       h.path,
		"points":     h.stats.Points,
	})
}

// failQuery classifies a query error into its HTTP status and counter.
func (s *Server) failQuery(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, gnn.ErrDeadlineExceeded):
		s.stats.deadlines.Add(1)
		writeError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, gnn.ErrCanceled):
		s.stats.canceled.Add(1)
		writeError(w, StatusClientClosedRequest, err.Error())
	case errors.Is(err, gnn.ErrSnapshotClosed):
		// Only reachable in a shutdown race; the request arrived as the
		// live handle was being torn down (a reload's displaced handle
		// sends its requests to the live one: see displaced).
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		s.stats.badReq.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// requestContext derives the per-request deadline: the request's own
// timeout_ms (clamped to MaxTimeout) or the server default, layered on
// the connection context so a disconnecting client cancels too.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// readJSON decodes the request body, bounding its size and rejecting
// trailing garbage. Returns false (response already written) on error.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.badRequest(w, "bad request body: "+err.Error())
		return false
	}
	return true
}

// buildQuery validates and converts a request's query group + options.
func (s *Server) buildQuery(w http.ResponseWriter, raw [][]float64, k int, algo, agg string) ([]gnn.QueryOption, []gnn.Point, bool) {
	query, err := toPoints(raw)
	if err != nil {
		s.badRequest(w, err.Error())
		return nil, nil, false
	}
	opts, ok := s.buildOptions(w, k, algo, agg)
	if !ok {
		return nil, nil, false
	}
	return opts, query, true
}

func (s *Server) buildOptions(w http.ResponseWriter, k int, algo, agg string) ([]gnn.QueryOption, bool) {
	if k <= 0 {
		k = 1
	}
	opts := []gnn.QueryOption{gnn.WithK(k)}
	switch strings.ToLower(algo) {
	case "", "mbm":
	case "mqm":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoMQM))
	case "spm":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoSPM))
	case "brute":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoBruteForce))
	default:
		s.badRequest(w, fmt.Sprintf("unknown algo %q (want mqm|spm|mbm|brute)", algo))
		return nil, false
	}
	switch strings.ToLower(agg) {
	case "", "sum":
	case "max":
		opts = append(opts, gnn.WithAggregate(gnn.MaxDist))
	case "min":
		opts = append(opts, gnn.WithAggregate(gnn.MinDist))
	default:
		s.badRequest(w, fmt.Sprintf("unknown agg %q (want sum|max|min)", agg))
		return nil, false
	}
	return opts, true
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.stats.badReq.Add(1)
	writeError(w, http.StatusBadRequest, msg)
}

func toPoints(raw [][]float64) ([]gnn.Point, error) {
	if len(raw) == 0 {
		return nil, errors.New("empty query group")
	}
	pts := make([]gnn.Point, len(raw))
	for i, c := range raw {
		if len(c) != len(raw[0]) || len(c) == 0 {
			return nil, fmt.Errorf("query point %d: inconsistent or empty coordinates", i)
		}
		pts[i] = gnn.Point(c)
	}
	return pts, nil
}

func toJSONResults(res []gnn.Result) []ResultJSON {
	out := make([]ResultJSON, len(res))
	for i, r := range res {
		out[i] = ResultJSON{ID: r.ID, Point: r.Point, Dist: r.Dist}
	}
	return out
}

func toJSONCost(c gnn.Cost) CostJSON {
	return CostJSON{
		NodeAccesses:    c.NodeAccesses,
		LogicalAccesses: c.LogicalAccesses,
		BufferHits:      c.BufferHits,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

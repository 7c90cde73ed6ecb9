package server

import (
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"gnn/internal/telemetry"
)

// endpointID names a metered route. The arrays below are indexed by it,
// so recording an outcome is two array loads and one atomic add — no
// map lookup, no label rendering on the request path.
type endpointID int

const (
	epGroupNN endpointID = iota
	epBatch
	epInsert
	epDelete
	epAdmin
	numEndpoints
)

var endpointNames = [numEndpoints]string{"groupnn", "batch", "insert", "delete", "admin"}

// outcomeID classifies how a request ended: instrument derives it from
// the response status (outcomeOf), or names it outPanic when it
// recovered a panic, and counts it in exactly one place.
type outcomeID int

const (
	outOK outcomeID = iota
	outBadRequest
	outRejected
	outCanceled
	outDeadline
	outPanic
	outError
	outUnavailable
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"ok", "bad_request", "rejected", "canceled", "deadline", "panic", "error", "unavailable",
}

// outcomeOf maps a response status to its outcome counter. A 500 that
// is not a recovered panic is an answer that could not be encoded.
func outcomeOf(status int) outcomeID {
	switch {
	case status < 400:
		return outOK
	case status == StatusClientClosedRequest:
		return outCanceled
	case status == 429:
		return outRejected
	case status == 504:
		return outDeadline
	case status == 500:
		return outError
	case status == 503:
		return outUnavailable
	default:
		return outBadRequest
	}
}

// guarded lists the endpoints that pass admission (guard), whose
// outcomes /v1/stats sums.
var guarded = []endpointID{epGroupNN, epBatch, epInsert, epDelete}

// algoID indexes the per-algorithm latency histograms.
type algoID int

const (
	algoMBM algoID = iota
	algoMQM
	algoSPM
	algoBrute
	numAlgos
)

var algoNames = [numAlgos]string{"mbm", "mqm", "spm", "brute"}

// serverMetrics is the daemon's Prometheus surface: every counter,
// gauge and histogram series is registered (and its label string
// rendered) once at startup, so the request path only touches atomics.
type serverMetrics struct {
	reg *telemetry.Registry

	requests [numEndpoints][numOutcomes]*telemetry.Counter
	latency  [numEndpoints][numAlgos]*telemetry.Histogram

	reloadsOK     *telemetry.Counter
	reloadsFailed *telemetry.Counter
	slowLogged    *telemetry.Counter
}

// newServerMetrics builds the registry. The gauge closures read the
// server's live state at scrape time, so /metrics always reflects the
// current handle even across hot reloads.
func newServerMetrics(s *Server) *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{reg: reg}

	for ep := endpointID(0); ep < numEndpoints; ep++ {
		for o := outcomeID(0); o < numOutcomes; o++ {
			m.requests[ep][o] = reg.Counter(
				"gnn_requests_total", "HTTP requests by endpoint and outcome.",
				telemetry.Label{Key: "endpoint", Value: endpointNames[ep]},
				telemetry.Label{Key: "outcome", Value: outcomeNames[o]},
			)
		}
	}
	// Latency is meaningful only where a kernel runs; the write and admin
	// endpoints are covered by the request counters alone.
	for _, ep := range []endpointID{epGroupNN, epBatch} {
		for a := algoID(0); a < numAlgos; a++ {
			m.latency[ep][a] = reg.Histogram(
				"gnn_request_duration_us", "Served-query latency in microseconds.",
				telemetry.Label{Key: "endpoint", Value: endpointNames[ep]},
				telemetry.Label{Key: "algo", Value: algoNames[a]},
			)
		}
	}

	reg.GaugeFunc("gnn_inflight", "Queries currently executing.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("gnn_queue_depth", "Requests waiting for an admission slot.",
		func() float64 { return float64(s.queued.Load()) })
	reg.GaugeFunc("gnn_snapshot_generation", "Reload generation of the live snapshot.",
		func() float64 { return float64(s.liveHandle().generation) })
	m.reloadsOK = reg.Counter("gnn_reloads_total", "Successful hot snapshot reloads.")
	m.reloadsFailed = reg.Counter("gnn_reloads_failed_total", "Rejected hot snapshot reloads (live index kept).")
	m.slowLogged = reg.Counter("gnn_slowlog_admissions_total", "Queries slow enough to enter the slow-query log.")

	reg.GaugeFunc("gnn_overlay_delta", "Points in the un-compacted write overlay.",
		func() float64 { return float64(s.liveHandle().q.Stats().Delta) })
	reg.GaugeFunc("gnn_overlay_tombstones", "Tombstoned base occurrences awaiting compaction.",
		func() float64 { return float64(s.liveHandle().q.Stats().Tombstones) })
	reg.GaugeFunc("gnn_compaction_generation", "Completed background compaction cycles.",
		func() float64 { return float64(s.liveHandle().q.Stats().CompactGen) })
	reg.GaugeFunc("gnn_compaction_last_duration_us", "Wall time of the last compaction cycle in microseconds.",
		func() float64 { return float64(s.liveHandle().q.Stats().LastCompaction.Microseconds()) })
	reg.GaugeFunc("gnn_compaction_error", "1 when the most recent compaction cycle failed, else 0.",
		func() float64 {
			if s.liveHandle().q.Stats().LastCompactionError != "" {
				return 1
			}
			return 0
		})

	reg.GaugeFunc("gnn_go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("gnn_go_heap_bytes", "Bytes of live heap objects.",
		func() float64 { return float64(s.runtime.sample().heapBytes) })
	reg.GaugeFunc("gnn_go_gc_pause_p99_us", "99th percentile GC stop-the-world pause in microseconds.",
		func() float64 { return s.runtime.sample().gcPauseP99US })
	reg.GaugeFunc("gnn_process_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.startedAt).Seconds() })

	return m
}

// observeQuery records a served query's latency under its endpoint and
// algorithm series.
func (m *serverMetrics) observeQuery(ep endpointID, a algoID, us uint64) {
	m.latency[ep][a].Observe(us)
}

// count sums outcome o's requests over the endpoints eps.
func (m *serverMetrics) count(o outcomeID, eps ...endpointID) uint64 {
	var n uint64
	for _, ep := range eps {
		n += m.requests[ep][o].Value()
	}
	return n
}

// servedLatency sums every registered latency series (the query
// endpoints' only) into one read, the source of /v1/stats' latency
// summary.
func (m *serverMetrics) servedLatency() telemetry.Buckets {
	var b telemetry.Buckets
	for _, byAlgo := range m.latency {
		for _, h := range byAlgo {
			if h != nil {
				h.AddTo(&b)
			}
		}
	}
	return b
}

// runtimeSampler batches runtime/metrics reads: every gauge closure on
// the scrape path shares one sample at most sampleTTL old, so a scrape
// with several runtime gauges pays one metrics read, not one per gauge.
type runtimeSampler struct {
	mu      sync.Mutex
	taken   time.Time
	samples []rtmetrics.Sample

	cached runtimeStats
}

type runtimeStats struct {
	heapBytes    uint64
	gcPauseP99US float64
}

const sampleTTL = time.Second

func newRuntimeSampler() *runtimeSampler {
	return &runtimeSampler{samples: []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/pauses:seconds"},
	}}
}

func (rs *runtimeSampler) sample() runtimeStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.taken.IsZero() && time.Since(rs.taken) < sampleTTL {
		return rs.cached
	}
	rtmetrics.Read(rs.samples)
	var out runtimeStats
	if rs.samples[0].Value.Kind() == rtmetrics.KindUint64 {
		out.heapBytes = rs.samples[0].Value.Uint64()
	}
	if rs.samples[1].Value.Kind() == rtmetrics.KindFloat64Histogram {
		out.gcPauseP99US = histP99US(rs.samples[1].Value.Float64Histogram())
	}
	rs.cached = out
	rs.taken = time.Now()
	return out
}

// histP99US extracts the 99th percentile from a runtime pause histogram
// (seconds) as microseconds, reported as the upper bound of the bucket
// holding the rank — the same conservative bias as the serving
// histogram.
func histP99US(h *rtmetrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(0.99 * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			// Buckets[i+1] is the bucket's upper bound; the last bucket's
			// bound can be +Inf, in which case fall back to its lower edge.
			up := h.Buckets[i+1]
			if up > 1e9 { // +Inf or absurd: clamp to the finite lower bound
				up = h.Buckets[i]
			}
			return up * 1e6
		}
	}
	return 0
}

// parseAlgoID maps a request's (already validated) algo string to its
// histogram index.
func parseAlgoID(algo string) algoID {
	switch algo {
	case "mqm":
		return algoMQM
	case "spm":
		return algoSPM
	case "brute":
		return algoBrute
	default:
		return algoMBM
	}
}

// statusRecorder captures the status a handler writes so the wrapper
// can classify the outcome after the fact.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = 200
	}
	return sr.ResponseWriter.Write(b)
}

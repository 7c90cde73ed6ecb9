// Package server implements the gnnserve HTTP daemon: a JSON query API
// over memory-mapped index snapshots, engineered for failure first.
//
// The serving core is an atomic handle swap. Queries load the live
// index handle through an atomic.Pointer, so a hot reload (SIGHUP or
// POST /admin/reload) stages the new snapshot with eager verification,
// swaps the pointer, and lets the old index drain through its
// refcounted Close — queries that started against the old mapping
// finish against it, queries that start after the swap see the new one,
// and a snapshot that fails verification never becomes live (the
// failure is surfaced in /v1/stats and the previous index keeps
// serving). Around that core sit admission control (a max-inflight
// semaphore with bounded queue wait; saturation returns 429 +
// Retry-After rather than queueing unboundedly), per-request deadline
// propagation into the traversal kernels (slow or disconnected clients
// get typed 499/504 failures within a bounded number of node visits,
// never a pinned worker), per-request panic containment, and a
// SIGTERM drain that flips /readyz before the listener stops.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gnn"
)

// Queryable is the serving surface the daemon needs from an index,
// satisfied by *gnn.Index (the fault tests inject a fake). The explain
// variant powers /v1/groupnn: its trace feeds the slow-query log and
// the opt-in "trace" echo, and collecting it never changes results.
// Insert and Delete serve POST /v1/insert and /v1/delete: writes land
// in the delta overlay while the mapped base keeps serving, and the
// background compactor folds them in.
type Queryable interface {
	GroupNNExplainContext(ctx context.Context, query []gnn.Point, opts ...gnn.QueryOption) ([]gnn.Result, *gnn.QueryExplain, error)
	GroupNNBatchContext(ctx context.Context, queries [][]gnn.Point, opts ...gnn.QueryOption) ([]gnn.BatchResult, error)
	Insert(p gnn.Point, id int64) error
	Delete(p gnn.Point, id int64) bool
	StartCompactor(gnn.CompactorConfig) error
	Stats() gnn.Stats
	Close() error
}

// Config tunes the daemon. Zero values select the documented defaults.
type Config struct {
	// SnapshotPath is the snapshot file to serve (required). Reload
	// reopens this path unless the reload request names another file.
	SnapshotPath string
	// MaxInflight caps concurrently executing queries (default
	// 2×GOMAXPROCS). Requests beyond the cap wait at most QueueWait for
	// a slot, then fail with 429.
	MaxInflight int
	// QueueWait bounds how long an over-cap request may wait for an
	// execution slot (default 100ms). The bound is what keeps overload
	// from building an unbounded queue of goroutines.
	QueueWait time.Duration
	// DefaultTimeout applies to requests that set no timeout_ms
	// (default 2s); MaxTimeout clamps what a request may ask for
	// (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout bounds the graceful-shutdown drain (default 10s):
	// inflight requests get that long to finish after SIGTERM before
	// the listener is torn down regardless.
	DrainTimeout time.Duration
	// MaxBodyBytes caps a request body (default 8 MiB).
	MaxBodyBytes int64
	// BufferPages is passed through to the snapshot open as
	// WithSnapshotBuffer.
	BufferPages int
	// EagerVerify verifies the initial open eagerly too (reloads always
	// verify eagerly; for the initial open it is optional so a huge
	// snapshot can start serving before the whole file has been read
	// for its checksums). Verification reads the file through the
	// mapping's descriptor, so it does not make the mapping resident.
	EagerVerify bool
	// CompactThreshold, when positive, starts a background compactor on
	// every opened index: once the write overlay (inserts + tombstones)
	// reaches this size, it is folded into a fresh base off the hot path
	// and the serving snapshot file is rotated crash-safely. Zero
	// disables background compaction (writes still work; the overlay
	// just grows until an operator compacts).
	CompactThreshold int
	// CompactInterval is the compactor poll period (default 50ms when
	// the compactor is enabled).
	CompactInterval time.Duration
	// SlowLogSize is how many of the slowest queries /debug/slowlog
	// retains, each with its explain trace (default 32).
	SlowLogSize int
	// Logger receives one structured line per request (nil = discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// handle is one generation of the serving state. The Server publishes
// the live one through an atomic pointer; a reload builds a fresh
// handle and swaps it in whole, so a query always sees one consistent
// (index, generation, path) triple.
type handle struct {
	q          Queryable
	path       string
	generation uint64
	stats      gnn.Stats
	loadedAt   time.Time
}

// Server is the daemon state. Create with New, mount via Handler, and
// drive reload/shutdown with Reload and Shutdown (or cmd/gnnserve's
// signal loop).
type Server struct {
	cfg  Config
	live atomic.Pointer[handle]
	// sem is the admission semaphore: a slot must be acquired before a
	// query executes, and release is by channel receive.
	sem   chan struct{}
	ready atomic.Bool

	// reloadMu serialises reloads (two concurrent swaps would race the
	// drain of the displaced handle); generation counts successful ones.
	reloadMu   sync.Mutex
	generation atomic.Uint64

	// inflight counts executing queries and queued the requests waiting
	// for a slot: the gnn_inflight and gnn_queue_depth gauges. Every
	// request outcome is a gnn_requests_total cell, counted once, by
	// instrument; /v1/stats reads those cells.
	inflight, queued atomic.Int64
	// lastReloadErr is the last rejected reload's message, nil after a
	// successful one.
	lastReloadErr atomic.Pointer[string]

	mux *http.ServeMux

	// Observability plane, built once by initTelemetry: the Prometheus
	// registry and pre-registered series, the slow-query log, the shared
	// runtime/metrics sampler, the request logger and the ID generator.
	metrics   *serverMetrics
	slow      *slowLog
	runtime   *runtimeSampler
	logger    *slog.Logger
	reqIDs    *reqIDGen
	startedAt time.Time
}

// New opens the snapshot at cfg.SnapshotPath and returns a ready
// server. The open maps the file zero-copy when the platform allows and
// serves a plain or a sharded snapshot alike.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, sem: make(chan struct{}, cfg.MaxInflight)}
	s.initTelemetry()
	h, err := s.open(cfg.SnapshotPath, cfg.EagerVerify)
	if err != nil {
		return nil, err
	}
	s.live.Store(h)
	s.mux = s.routes()
	s.ready.Store(true)
	return s, nil
}

// initTelemetry builds the observability plane. Idempotent: New calls
// it up front and routes calls it again so a hand-assembled Server (the
// fault-injection tests) gets the same plane. Registration renders
// every label string here, once; the request path only touches the
// pre-resolved series.
func (s *Server) initTelemetry() {
	if s.metrics != nil {
		return
	}
	s.startedAt = time.Now()
	s.runtime = newRuntimeSampler()
	s.slow = newSlowLog(s.cfg.SlowLogSize)
	s.reqIDs = newReqIDGen()
	s.logger = s.cfg.Logger
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.metrics = newServerMetrics(s)
}

// open maps the snapshot at path, of either kind, into a fresh handle
// (not yet live).
func (s *Server) open(path string, eager bool) (*handle, error) {
	opts := []gnn.SnapshotOption{gnn.WithSnapshotBuffer(s.cfg.BufferPages)}
	if eager {
		opts = append(opts, gnn.WithEagerVerify())
	}
	ix, err := gnn.OpenSnapshotMapped(path, opts...)
	if err != nil {
		return nil, err
	}
	var q Queryable = ix
	// Background compaction is per-handle: the displaced handle's Close
	// stops its compactor (waiting out an in-flight cycle) as part of the
	// drain, and the fresh handle gets its own. The rotation path is the
	// file being served — a successful cycle atomically replaces it, so
	// the next reload or cold start picks up the folded state.
	if s.cfg.CompactThreshold > 0 {
		if cerr := q.StartCompactor(gnn.CompactorConfig{
			Threshold: s.cfg.CompactThreshold,
			Interval:  s.cfg.CompactInterval,
			Path:      path,
		}); cerr != nil {
			q.Close()
			return nil, fmt.Errorf("starting compactor: %w", cerr)
		}
	}
	return &handle{
		q: q, path: path,
		generation: s.generation.Add(1),
		stats:      q.Stats(),
		loadedAt:   time.Now(),
	}, nil
}

// Generation reports the handle's reload generation (for logging by
// the command; the type itself stays internal to the package).
func (h *handle) Generation() uint64 { return h.generation }

// Handler returns the daemon's HTTP handler (all endpoints mounted).
func (s *Server) Handler() http.Handler { return s.mux }

// liveHandle returns the current serving handle. Never nil after New.
func (s *Server) liveHandle() *handle { return s.live.Load() }

// Reload stages the snapshot at path (empty = the path the live handle
// was loaded from), verifies it eagerly, and swaps it live. On any
// failure — unreadable file, bad magic, checksum or version mismatch —
// the live index is untouched and keeps serving, the error is recorded
// for /v1/stats, and the same error is returned. On success the
// displaced index drains its inflight queries and unmaps in the
// background.
func (s *Server) Reload(path string) (*handle, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.live.Load()
	if path == "" {
		path = old.path
	}
	// Eager verification is what makes the swap safe to publish: a
	// handle that opened cleanly here can no longer fail a query with
	// ErrSnapshotChecksum later.
	h, err := s.open(path, true)
	if err != nil {
		s.metrics.reloadsFailed.Inc()
		msg := err.Error()
		s.lastReloadErr.Store(&msg)
		return nil, err
	}
	s.live.Store(h)
	s.metrics.reloadsOK.Inc()
	s.lastReloadErr.Store(nil)
	// The old mapping drains via its refcount: Close blocks until the
	// last query that acquired it finishes, so it must not run on this
	// (or any request's) goroutine.
	go old.q.Close()
	return h, nil
}

// NotReady flips readiness off (load balancers stop routing here).
// Called at the start of a graceful shutdown, before the drain.
func (s *Server) NotReady() { s.ready.Store(false) }

// Close drains and unmaps the live index. Call after the HTTP listener
// has fully shut down.
func (s *Server) Close() error {
	s.ready.Store(false)
	if h := s.live.Load(); h != nil {
		return h.q.Close()
	}
	return nil
}

// DrainTimeout exposes the configured shutdown grace to the command.
func (s *Server) DrainTimeout() time.Duration { return s.cfg.DrainTimeout }

// admit acquires an execution slot, waiting at most QueueWait (or the
// request's own remaining deadline, whichever ends first). It returns a
// release function, or errSaturated or the context's error (see fail).
var errSaturated = errors.New("server at capacity; retry")

func (s *Server) admit(ctx context.Context) (func(), error) {
	select {
	case s.sem <- struct{}{}: // fast path: free slot, no timer
		return s.release, nil
	default:
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return s.release, nil
	case <-t.C:
		return nil, errSaturated
	case <-ctx.Done():
		return nil, fmt.Errorf("while queued: %w", ctx.Err())
	}
}

func (s *Server) release() { <-s.sem }

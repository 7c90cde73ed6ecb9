package server

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

// ctxKey keys the per-request values the guard hands to handlers.
type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyAdmissionWait
)

// requestIDFrom returns the request's ID, "" when unset (direct handler
// tests that bypass the instrument wrapper).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// admissionWaitFrom returns how long the request queued for an
// admission slot, 0 for un-throttled or fast-path admissions.
func admissionWaitFrom(ctx context.Context) time.Duration {
	d, _ := ctx.Value(ctxKeyAdmissionWait).(time.Duration)
	return d
}

// reqIDGen issues request IDs: an 8-hex process nonce (so IDs from
// different daemon runs never collide in aggregated logs) plus a
// monotonic sequence number.
type reqIDGen struct {
	nonce uint32
	seq   atomic.Uint64
}

func newReqIDGen() *reqIDGen {
	var b [4]byte
	crand.Read(b[:]) // best effort; an all-zero nonce still yields unique IDs per process
	return &reqIDGen{nonce: binary.LittleEndian.Uint32(b[:])}
}

func (g *reqIDGen) next() string {
	return fmt.Sprintf("%08x-%06d", g.nonce, g.seq.Add(1))
}

// instrument wraps a route with the daemon's per-request observability
// and panic containment: a request ID (honoring an inbound X-Request-ID
// and always echoing one back), the recovery of a panic in h as a 500,
// the outcome counter for metered endpoints — the one place a request's
// outcome is counted — and one structured log line per request. ep < 0
// marks an unmetered control-plane route: it still gets the ID, the
// recovery and the log line, just no counter series.
func (s *Server) instrument(ep endpointID, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = s.reqIDs.next()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, rid))
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		panicked := contain(h, rec, r)
		elapsed := time.Since(start)
		if rec.status == 0 {
			rec.status = 200
		}
		if ep >= 0 {
			o := outcomeOf(rec.status)
			if panicked {
				o = outPanic
			}
			s.metrics.requests[ep][o].Inc()
		}
		// Health probes poll every few seconds; keep them out of the Info
		// stream so the log is requests, not liveness noise.
		level := slog.LevelInfo
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			level = slog.LevelDebug
		}
		s.logger.LogAttrs(r.Context(), level, "request",
			slog.String("request_id", rid),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Int64("elapsed_us", elapsed.Microseconds()),
			slog.String("remote", r.RemoteAddr),
		)
	}
}

// contain runs h and recovers a panic in it, which answers 500 instead
// of killing the process. It reports whether h panicked. A guarded
// handler's deferred slot release runs before the recovery.
func contain(h http.HandlerFunc, w http.ResponseWriter, r *http.Request) (panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
		}
	}()
	h(w, r)
	return false
}

// epNone marks routes that get logging but no outcome counter series.
const epNone endpointID = -1

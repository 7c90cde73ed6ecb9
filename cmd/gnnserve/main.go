// Command gnnserve is the GNN query daemon: it memory-maps an index
// snapshot (plain or sharded: one open serves either) and serves
// group nearest neighbor queries over an HTTP JSON API.
//
//	gnngen -dataset PP -n 500000 -format snapshot -out pp.snap
//	gnnserve -snapshot pp.snap -addr :8080
//
//	curl -s localhost:8080/v1/groupnn -d '{"query":[[2000,3000],[2500,3500]],"k":3}'
//
// Endpoints: POST /v1/groupnn (one query group; set "trace": true to
// get the query's explain report — stage timings, pruning counters,
// provenance — in the response), POST /v1/batch (many groups, one
// deadline), POST /v1/insert and /v1/delete (writes into the delta
// overlay while the mapped base keeps serving), GET /v1/stats (request
// counts and latency percentiles read from the /metrics series,
// reload/compaction health and process runtime stats), GET /metrics
// (Prometheus text exposition), GET
// /debug/slowlog (the N slowest queries with their explain traces), GET
// /debug/pprof/* (the standard Go profiles), GET /healthz (process
// liveness), GET /readyz (serving readiness; flips 503 during drain),
// POST /admin/reload (hot snapshot swap; also on SIGHUP).
//
// Every request gets an X-Request-ID (inbound IDs are honored) and one
// structured log line on stderr (-log-format text|json, -log-level).
//
// Failure behavior: requests carry a deadline (timeout_ms, clamped to
// -max-timeout) that propagates into the traversal kernels — slow or
// disconnected clients get 504/499 within a bounded number of node
// visits; load beyond -max-inflight waits at most -queue-wait then gets
// 429 + Retry-After; a reload of a corrupt snapshot is rejected (409)
// while the live index keeps serving; SIGTERM flips /readyz, drains
// inflight requests up to -drain-timeout, waits out any in-flight
// background compaction (so no rotation temp file is orphaned), then
// unmaps and exits.
//
// With -compact-threshold N, writes are folded into a fresh packed base
// by a background compactor once the overlay reaches N entries, and the
// serving snapshot file is rotated crash-safely (write temp → fsync →
// verify → rename) so a restart picks up the folded state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gnn/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		snap        = flag.String("snapshot", "", "index snapshot file to serve (required)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = 2×GOMAXPROCS)")
		queueWait   = flag.Duration("queue-wait", 100*time.Millisecond, "max wait for an execution slot before 429")
		defTimeout  = flag.Duration("timeout", 2*time.Second, "default per-request deadline")
		maxTimeout  = flag.Duration("max-timeout", 30*time.Second, "upper clamp on request timeout_ms")
		drain       = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain bound")
		bufferPages = flag.Int("buffer", 0, "LRU buffer pages for access accounting (0 = none)")
		eager       = flag.Bool("eager-verify", false, "verify the initial snapshot open eagerly")
		compactAt   = flag.Int("compact-threshold", 0, "overlay size triggering background compaction (0 = disabled)")
		compactIvl  = flag.Duration("compact-interval", 50*time.Millisecond, "background compactor poll period")
		slowlogN    = flag.Int("slowlog", 32, "slowest queries retained at /debug/slowlog")
		logFormat   = flag.String("log-format", "text", "structured log format: text|json")
		logLevel    = flag.String("log-level", "info", "log level: debug|info|warn|error")
	)
	flag.Parse()
	if *snap == "" {
		fmt.Fprintln(os.Stderr, "usage: gnnserve -snapshot pp.snap [-addr :8080]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gnnserve: %v\n", err)
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		SnapshotPath:     *snap,
		MaxInflight:      *maxInflight,
		QueueWait:        *queueWait,
		DefaultTimeout:   *defTimeout,
		MaxTimeout:       *maxTimeout,
		DrainTimeout:     *drain,
		BufferPages:      *bufferPages,
		EagerVerify:      *eager,
		CompactThreshold: *compactAt,
		CompactInterval:  *compactIvl,
		SlowLogSize:      *slowlogN,
		Logger:           logger,
	})
	if err != nil {
		logger.Error("opening snapshot failed", "path", *snap, "error", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "snapshot", *snap, "addr", *addr)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	for {
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("listener failed", "error", err)
				os.Exit(1)
			}
			return
		case sig := <-sigc:
			switch sig {
			case syscall.SIGHUP:
				if h, err := srv.Reload(""); err != nil {
					logger.Warn("reload rejected, serving previous snapshot", "error", err)
				} else {
					logger.Info("reloaded", "generation", h.Generation())
				}
				continue
			default: // SIGTERM / SIGINT: graceful drain
				logger.Info("draining", "signal", sig.String(), "timeout", srv.DrainTimeout().String())
				srv.NotReady()
				ctx, cancel := context.WithTimeout(context.Background(), srv.DrainTimeout())
				if err := hs.Shutdown(ctx); err != nil {
					logger.Warn("drain cut short", "error", err)
				}
				cancel()
				if err := srv.Close(); err != nil {
					logger.Warn("closing index failed", "error", err)
				}
				logger.Info("stopped")
				return
			}
		}
	}
}

// newLogger builds the daemon's structured logger on stderr.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text|json)", format)
	}
}

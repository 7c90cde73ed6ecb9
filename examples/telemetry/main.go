// Example telemetry: the README's "Observability" section in one
// program — stand up the query daemon in-process, run a query storm
// with a traced request mixed in, scrape /metrics and parse the
// exposition with the strict round-trip parser, read the slow-query
// log back, and check the runtime block of /v1/stats.
//
// It uses the same internal/server engine as cmd/gnnserve, so against
// a real daemon every curl in the comments works verbatim.
//
//	go run ./examples/telemetry
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"

	"gnn"
	"gnn/internal/server"
	"gnn/internal/telemetry"
)

func main() {
	dir, err := os.MkdirTemp("", "gnn-telemetry")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ── Offline: build a snapshot and stand up the daemon over it. ───────
	snap := filepath.Join(dir, "places.snap")
	writeSnapshot(snap, 50_000, 1)
	srv, err := server.New(server.Config{SnapshotPath: snap, SlowLogSize: 5})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String()
	fmt.Printf("daemon serving %s at %s\n\n", filepath.Base(snap), url)

	// ── A query storm: 30 plain requests and one with "trace": true.
	// curl localhost:8080/v1/groupnn -d '{"query":[[…]],"k":3,"trace":true}'
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		post(url+"/v1/groupnn", queryBody(rng, false), nil)
	}
	var traced struct {
		Explain *gnn.QueryExplain `json:"explain"`
	}
	post(url+"/v1/groupnn", queryBody(rng, true), &traced)
	ex := traced.Explain
	fmt.Printf("traced query: %s/%s, %d stage(s), %d nodes visited, H2+H3 pruned %d\n",
		ex.Algorithm, ex.Aggregate, len(ex.Stages),
		ex.Trace.NodesVisited, ex.Trace.NodesPrunedH2+ex.Trace.NodesPrunedH3)
	for _, st := range ex.Stages {
		fmt.Printf("  stage %-10s %6d µs\n", st.Name, st.DurationUS)
	}

	// ── Scrape /metrics and run the exposition through the same strict
	// parser CI round-trips every emitted line through.
	// curl localhost:8080/metrics
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	families, err := telemetry.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatalf("exposition failed the strict parser: %v", err)
	}
	fmt.Printf("\n/metrics: %d families, all lines parse\n", len(families))
	byName := map[string]telemetry.Family{}
	names := make([]string, 0, len(families))
	for _, f := range families {
		byName[f.Name] = f
		names = append(names, f.Name)
	}
	sort.Strings(names)
	for _, n := range []string{"gnn_requests_total", "gnn_request_duration_us", "gnn_go_goroutines"} {
		f, ok := byName[n]
		if !ok {
			log.Fatalf("family %s missing from the exposition", n)
		}
		fmt.Printf("  %-24s %-9s %d sample(s)\n", f.Name, f.Type, len(f.Samples))
	}
	for _, s := range byName["gnn_requests_total"].Samples {
		// The full matrix is pre-registered (every endpoint × outcome);
		// print just the endpoint the storm hit.
		if s.Labels["endpoint"] == "groupnn" && s.Value > 0 {
			fmt.Printf("    requests{endpoint=%q,outcome=%q} = %.0f\n",
				s.Labels["endpoint"], s.Labels["outcome"], s.Value)
		}
	}

	// ── The slow-query log: the N slowest requests, each with its full
	// explain trace, slowest first.
	// curl localhost:8080/debug/slowlog
	var slow struct {
		Slowest []struct {
			ElapsedUS int64             `json:"elapsed_us"`
			Algo      string            `json:"algo"`
			Explain   *gnn.QueryExplain `json:"explain"`
		} `json:"slowest"`
	}
	get(url+"/debug/slowlog", &slow)
	fmt.Printf("\n/debug/slowlog: %d retained\n", len(slow.Slowest))
	for i, e := range slow.Slowest {
		fmt.Printf("  #%d  %6d µs  %s  (%d stages in trace)\n",
			i+1, e.ElapsedUS, e.Algo, len(e.Explain.Stages))
	}

	// ── The runtime block of /v1/stats: same numbers the gnn_go_*
	// families export, for consumers that speak JSON rather than
	// Prometheus.  curl localhost:8080/v1/stats
	var stats struct {
		Runtime struct {
			Goroutines    int     `json:"goroutines"`
			HeapBytes     uint64  `json:"heap_bytes"`
			UptimeSeconds float64 `json:"uptime_seconds"`
		} `json:"runtime"`
	}
	get(url+"/v1/stats", &stats)
	fmt.Printf("\n/v1/stats runtime: %d goroutines, %.1f MiB heap, up %.2fs\n",
		stats.Runtime.Goroutines, float64(stats.Runtime.HeapBytes)/(1<<20),
		stats.Runtime.UptimeSeconds)
}

// queryBody builds one /v1/groupnn request: a 3-attendee meeting-point
// query, optionally with the explain trace echoed back.
func queryBody(rng *rand.Rand, trace bool) []byte {
	group := make([][]float64, 3)
	for i := range group {
		group[i] = []float64{rng.Float64() * 10_000, rng.Float64() * 10_000}
	}
	b, err := json.Marshal(map[string]any{"query": group, "k": 3, "trace": trace})
	if err != nil {
		log.Fatal(err)
	}
	return b
}

func post(url string, body []byte, out any) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

// writeSnapshot builds an index over n uniform points and persists it.
func writeSnapshot(path string, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]gnn.Point, n)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64() * 10_000, rng.Float64() * 10_000}
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	if err := ix.WriteSnapshotFile(path); err != nil {
		log.Fatal(err)
	}
}

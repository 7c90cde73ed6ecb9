package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReloadUnderWriteTraffic hot-reloads the served snapshot over and
// over while workers drive /v1/groupnn, /v1/batch, /v1/insert and
// /v1/delete through the handler. Each reload closes the displaced handle
// on a goroutine while requests that loaded it may still be reading or
// writing its mapping. Every response must be 2xx or a documented 4xx,
// no batch entry may carry an error, and the process must survive: a
// request that touched an unmapped page would kill the test binary.
func TestReloadUnderWriteTraffic(t *testing.T) {
	const minReloads, minAnswers = 300, 4000
	dir := t.TempDir()
	path, _ := buildSnapshot(t, dir, "rw.snap", 3000, 33)
	srv, err := New(Config{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	post := func(url string, v any) (int, string) {
		body, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	documented := map[int]bool{
		http.StatusOK: true,
		// Admission may reject a burst: the documented back-pressure.
		http.StatusTooManyRequests: true,
	}

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		bad     []string
		answers atomic.Int64
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stop.Load(); i++ {
				p := []float64{rng.Float64() * 1000, rng.Float64() * 1000}
				id := int64(1_000_000*(w+1) + i)
				for _, req := range []struct {
					url  string
					body any
				}{
					{"/v1/groupnn", QueryRequest{Query: [][]float64{p, {500, 500}}, K: 2}},
					{"/v1/batch", BatchRequest{Queries: [][][]float64{{p, {500, 500}}, {p}, {{500, 500}, p, {0, 0}}}, K: 2}},
					{"/v1/delete", MutateRequest{Point: p, ID: id}}, // absent: counts base occurrences
					{"/v1/insert", MutateRequest{Point: p, ID: id}},
					{"/v1/delete", MutateRequest{Point: p, ID: id}},
				} {
					code, body := post(req.url, req.body)
					if !documented[code] || code == http.StatusOK && req.url == "/v1/batch" && batchFailed(body) {
						mu.Lock()
						bad = append(bad, fmt.Sprintf("%s: %d %s", req.url, code, body))
						mu.Unlock()
					}
					answers.Add(1)
				}
			}
		}(w)
	}
	// At least minReloads reloads, and on until the workers have sent
	// minAnswers requests, so the swaps land among the requests.
	n := 0
	for ; n < minReloads || answers.Load() < minAnswers; n++ {
		if _, err := srv.Reload(""); err != nil {
			t.Errorf("reload %d: %v", n, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("%d of %d responses were neither 2xx nor a documented 4xx, e.g. %s", len(bad), answers.Load(), bad[0])
	}
	if g := srv.liveHandle().generation; g != uint64(n+1) {
		t.Fatalf("generation %d after %d reloads", g, n)
	}
	t.Logf("%d responses across %d reloads", answers.Load(), n)
}

// batchFailed reports whether a /v1/batch response body carries an entry
// error (or does not parse).
func batchFailed(body string) bool {
	var resp BatchResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		return true
	}
	for _, e := range resp.Entries {
		if e.Error != "" {
			return true
		}
	}
	return false
}

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"gnn/internal/snapshot"
)

// TestHugeKHandler: a request's k sizes nothing until results exist. A
// /v1/groupnn or /v1/batch body with k = 1<<24 against a 4-point
// snapshot answers 200 with min(k, live) = 4 results while the handler
// allocates under 1 MB (buffers sized by k would ask for ~640 MB).
func TestHugeKHandler(t *testing.T) {
	const k, budget = 1 << 24, 1 << 20
	path, _ := buildSnapshot(t, t.TempDir(), "tiny.snap", 4, 3)
	srv, _ := newSnapshotServer(t, path, nil)
	h := srv.Handler()
	query := [][]float64{{500, 500}, {520, 480}}
	serve := func(url string, req any) *httptest.ResponseRecorder {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		return rec
	}
	for _, c := range []struct {
		url string
		req any
	}{
		{"/v1/groupnn", QueryRequest{Query: query, K: k}},
		{"/v1/groupnn", QueryRequest{Query: query, K: k, Algo: "mqm"}},
		{"/v1/batch", BatchRequest{Queries: [][][]float64{query}, K: k}},
	} {
		serve(c.url, c.req) // warm the scratch pools' one-time set-up
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := serve(c.url, c.req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.url, rec.Code, rec.Body.String())
		}
		var results []ResultJSON
		if c.url == "/v1/batch" {
			var out BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Entries) != 1 {
				t.Fatalf("batch body: %v", err)
			}
			results = out.Entries[0].Results
		} else {
			var out QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			results = out.Results
		}
		if len(results) != 4 {
			t.Fatalf("%s: %d results, want min(k, live) = 4", c.url, len(results))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= budget {
			t.Fatalf("%s with k = %d allocated %d bytes, budget %d", c.url, k, n, budget)
		}
	}
}

// TestStatsArenaBytes: /v1/stats reports the served arena's size as
// exactly the column payload of its snapshot — the only copy of the
// points a mapped daemon holds.
func TestStatsArenaBytes(t *testing.T) {
	path, ix := buildSnapshot(t, t.TempDir(), "a.snap", 2000, 5)
	_, ts := newSnapshotServer(t, path, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.DecodeAdopted(data)
	if err == nil {
		err = a.Verify()
	}
	if err != nil {
		t.Fatal(err)
	}
	st := a.Trees[0]
	want := int64(4*len(st.Level) + 8*len(st.Page) + 4*len(st.Start) + 4*len(st.End) + 4*len(st.Child) + 8*len(st.IDs))
	for a := range st.PointCols {
		want += int64(8 * (len(st.RectLo[a]) + len(st.RectHi[a]) + len(st.PointCols[a])))
	}
	if got := getStats(t, ts).Index.ArenaBytes; got != want {
		t.Fatalf("arena_bytes = %d, want the %d column bytes", got, want)
	}
	if got := ix.Stats().ArenaBytes; got != want {
		t.Fatalf("writer Stats().ArenaBytes = %d, want %d", got, want)
	}
}

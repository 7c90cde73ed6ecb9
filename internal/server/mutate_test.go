// Write-path tests for the daemon: /v1/insert and /v1/delete against a
// mapped snapshot, live overlay stats, and background compaction
// rotating the serving file under traffic.
package server

import (
	"net/http"
	"os"
	"testing"
	"time"

	"gnn"
	"gnn/internal/snapshot"
)

func TestMutateEndpoints(t *testing.T) {
	dir := t.TempDir()
	path, _ := buildSnapshot(t, dir, "mut.snap", 500, 11)
	_, ts := newSnapshotServer(t, path, nil)
	client := ts.Client()

	// Insert lands in the overlay; the response echoes the overlay size.
	var mr MutateResponse
	if code := postJSON(t, client, ts.URL+"/v1/insert",
		MutateRequest{Point: []float64{1.5, 2.5}, ID: 90_001}, &mr); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if mr.Delta != 1 || mr.Tombstones != 0 {
		t.Fatalf("insert response: %+v", mr)
	}

	// The inserted point is queryable immediately.
	var qr QueryResponse
	if code := postJSON(t, client, ts.URL+"/v1/groupnn",
		QueryRequest{Query: [][]float64{{1.5, 2.5}}, K: 1}, &qr); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if len(qr.Results) != 1 || qr.Results[0].ID != 90_001 {
		t.Fatalf("query missed the inserted point: %+v", qr.Results)
	}

	// Stats reflect the live overlay, not the load-time snapshot.
	st := getStats(t, ts)
	if st.Overlay.Delta != 1 || st.Index.Points != 501 || st.Requests.Mutations != 1 {
		t.Fatalf("stats after insert: overlay=%+v points=%d mutations=%d",
			st.Overlay, st.Index.Points, st.Requests.Mutations)
	}

	// Delete of the overlay point drains it; a repeat delete is a no-op
	// reported as deleted=false, not an error.
	if code := postJSON(t, client, ts.URL+"/v1/delete",
		MutateRequest{Point: []float64{1.5, 2.5}, ID: 90_001}, &mr); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if !mr.Deleted || mr.Delta != 0 {
		t.Fatalf("delete response: %+v", mr)
	}
	if code := postJSON(t, client, ts.URL+"/v1/delete",
		MutateRequest{Point: []float64{1.5, 2.5}, ID: 90_001}, &mr); code != http.StatusOK || mr.Deleted {
		t.Fatalf("repeat delete: status %d, %+v", code, mr)
	}

	// Malformed writes are 400s with the counter bumped.
	if code := postJSON(t, client, ts.URL+"/v1/insert",
		MutateRequest{Point: []float64{1, 2, 3}, ID: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("wrong-dimension insert: status %d", code)
	}
	if code := postJSON(t, client, ts.URL+"/v1/insert",
		MutateRequest{ID: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty-point insert: status %d", code)
	}
}

func TestServerBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	path, _ := buildSnapshot(t, dir, "compact.snap", 400, 12)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newSnapshotServer(t, path, func(c *Config) {
		c.CompactThreshold = 16
		c.CompactInterval = 5 * time.Millisecond
	})
	client := ts.Client()

	for i := 0; i < 48; i++ {
		var mr MutateResponse
		if code := postJSON(t, client, ts.URL+"/v1/insert",
			MutateRequest{Point: []float64{float64(i), float64(i)}, ID: int64(80_000 + i)}, &mr); code != http.StatusOK {
			t.Fatalf("insert %d: status %d", i, code)
		}
	}
	// The compactor folds the overlay below threshold and rotates the
	// serving snapshot file; poll briefly (it runs off the request path).
	deadline := time.After(5 * time.Second)
	for {
		st := getStats(t, ts)
		if st.Overlay.CompactionGen > 0 && st.Overlay.Delta < 16 && st.Overlay.LastCompactionErr == "" {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("compaction never caught up: %+v", st.Overlay)
		case <-time.After(10 * time.Millisecond):
		}
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() == before.Size() && after.ModTime().Equal(before.ModTime()) {
		t.Fatal("serving snapshot file was never rotated")
	}
	if _, err := os.Stat(snapshot.TempPath(path)); !os.IsNotExist(err) {
		t.Fatalf("rotation temp file left behind: %v", err)
	}
	// The rotated file is a valid snapshot holding the folded state.
	loaded, err := gnn.OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("rotated snapshot not decodable: %v", err)
	}
	if loaded.Len() < 400 {
		t.Fatalf("rotated snapshot lost points: %d", loaded.Len())
	}
	// Close drains the compactor with the server (no goroutine leak under
	// -race; an in-flight cycle finishes first).
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"gnn"
	"gnn/internal/server"
)

// TestFailedFracCountsErrorsAndWrongAnswers drives a stub daemon that
// answers one request with a 500 and another with a wrong distance: both
// must count as failed, and nothing else.
func TestFailedFracCountsErrorsAndWrongAnswers(t *testing.T) {
	pts := []gnn.Point{{0, 0}, {1, 0}, {0, 1}, {5, 5}, {2, 3}}
	ids := []int64{0, 1, 2, 3, 4}
	const k = 2
	spec := workloadSpec{k: k, agg: "sum"}
	ops := make([]op, 4)
	for i := range ops {
		ops[i] = op{kind: opQuery, group: []gnn.Point{{float64(i), 0}, {0, float64(i)}}, check: true}
		if err := ops[i].marshal(spec); err != nil {
			t.Fatal(err)
		}
	}

	var calls atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		call := calls.Add(1) - 1
		if call == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		var req server.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		group := make([]gnn.Point, len(req.Query))
		for i, q := range req.Query {
			group[i] = q
		}
		var resp server.QueryResponse
		for _, d := range refTopK(newLiveSet(pts, ids), group, false, req.K, math.Inf(1)) {
			resp.Results = append(resp.Results, server.ResultJSON{Dist: d})
		}
		if call == 2 {
			resp.Results[1].Dist += 1e-9
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer stub.Close()

	outs, _ := drive(newClient(), stub.URL, ops, noLimit)
	if len(outs) != len(ops) {
		t.Fatalf("drive sent %d of %d requests", len(outs), len(ops))
	}
	got := verify(newLiveSet(pts, ids), ops, outs, k, false)
	if got.non2xx != 1 || got.wrong != 1 || got.transport != 0 || got.failed() != 2 {
		t.Fatalf("tally %v: want one non-2xx and one wrong answer, two failed", got)
	}
	if got.checked != 3 {
		t.Errorf("checked %d answers against the reference, want 3", got.checked)
	}
	if f := got.failedFrac(); f != 0.5 {
		t.Errorf("failed_frac = %v, want 2/4", f)
	}
}

// TestVerifyTracksWrites replays inserts and deletes: the reference must
// see the live set as it is after each acknowledged write, and a delete
// the daemon reports as a miss is a failure.
func TestVerifyTracksWrites(t *testing.T) {
	pts := []gnn.Point{{0, 0}, {10, 10}}
	ids := []int64{0, 1}
	q := []gnn.Point{{9, 9}}
	ops := []op{
		{kind: opInsert, p: gnn.Point{9, 9}, id: 7},
		{kind: opQuery, group: q, check: true},
		{kind: opDeleteInsert, p: gnn.Point{9, 9}, id: 7},
		{kind: opQuery, group: q, check: true},
		{kind: opDeleteBase, p: gnn.Point{0, 0}, id: 0},
	}
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	answer := func(d float64) []byte {
		return body(server.QueryResponse{Results: []server.ResultJSON{{Dist: d}}})
	}
	outs := []outcome{
		{status: 200, body: body(server.MutateResponse{})},
		{status: 200, body: answer(0)},
		{status: 200, body: body(server.MutateResponse{Deleted: true})},
		{status: 200, body: answer(math.Sqrt(2))},
		{status: 200, body: body(server.MutateResponse{Deleted: false})},
	}
	got := verify(newLiveSet(pts, ids), ops, outs, 1, false)
	if got.wrong != 1 || got.checked != 2 {
		t.Fatalf("tally %v: want only the missed delete wrong, 2 answers checked", got)
	}
}

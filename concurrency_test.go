// Concurrency tests for the per-query execution-context refactor: many
// goroutines fire mixed read operations at one shared Index (with and
// without an LRU buffer) and every answer must match the serial run, while
// the per-query costs sum exactly to the index-wide aggregate. Run with
// -race; the suite is its primary consumer.
package gnn_test

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gnn"
)

// concurrencyFixture builds a shared index and a deterministic workload.
func concurrencyFixture(t testing.TB, bufferPages int) (*gnn.Index, [][]gnn.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	pts := make([]gnn.Point, 4000)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{BufferPages: bufferPages})
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]gnn.Point, 24)
	for g := range groups {
		qs := make([]gnn.Point, 8)
		base := gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		for i := range qs {
			qs[i] = gnn.Point{base[0] + rng.Float64()*120, base[1] + rng.Float64()*120}
		}
		groups[g] = qs
	}
	return ix, groups
}

// concurrentOp answers one query group through one of the mixed read paths
// and returns its results plus its per-query cost.
func concurrentOp(ix *gnn.Index, qs []gnn.Point, op int) ([]gnn.Result, gnn.Cost, error) {
	switch op % 4 {
	case 0: // MBM (best-first, the default engine)
		return ix.GroupNNWithCost(qs, gnn.WithK(3), gnn.WithAlgorithm(gnn.AlgoMBM))
	case 1: // MQM: many incremental point-NN streams at once
		return ix.GroupNNWithCost(qs, gnn.WithK(3), gnn.WithAlgorithm(gnn.AlgoMQM))
	case 2: // plain best-first point NN
		return ix.NearestNeighborsWithCost(qs[0], 3)
	default: // incremental GNN iterator, drained for 3 results
		it, err := ix.GroupNNIterator(qs)
		if err != nil {
			return nil, gnn.Cost{}, err
		}
		var out []gnn.Result
		for len(out) < 3 {
			r, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, r)
		}
		return out, it.Cost(), nil
	}
}

func TestConcurrentReadsMatchSerial(t *testing.T) {
	const goroutines = 8
	const opsPerGoroutine = 48
	for _, bufferPages := range []int{0, 256} {
		t.Run(fmt.Sprintf("buffer=%d", bufferPages), func(t *testing.T) {
			ix, groups := concurrencyFixture(t, bufferPages)

			// Serial reference: one answer per (group, op-kind) cell.
			want := make(map[[2]int][]gnn.Result)
			for g := range groups {
				for op := 0; op < 4; op++ {
					res, _, err := concurrentOp(ix, groups[g], op)
					if err != nil {
						t.Fatal(err)
					}
					want[[2]int{g, op}] = res
				}
			}

			// Concurrent phase: track the aggregate delta from here on.
			ix.ResetCost()
			costs := make([]gnn.Cost, goroutines)
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for w := 0; w < goroutines; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < opsPerGoroutine; i++ {
						g := (w*opsPerGoroutine + i) % len(groups)
						op := (w + i) % 4
						res, cost, err := concurrentOp(ix, groups[g], op)
						if err != nil {
							errs <- fmt.Errorf("worker %d op %d: %w", w, op, err)
							return
						}
						if !reflect.DeepEqual(res, want[[2]int{g, op}]) {
							errs <- fmt.Errorf("worker %d: group %d op %d diverged from serial run", w, g, op)
							return
						}
						costs[w].Add(cost)
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Sum of per-query costs must equal the aggregate exactly, even
			// under a shared LRU buffer (the hit/miss split is racy, but
			// every access lands on both sides with the same outcome).
			var sum gnn.Cost
			for _, c := range costs {
				sum.Add(c)
			}
			if sum != ix.Cost() {
				t.Fatalf("per-query cost sum %+v != aggregate %+v", sum, ix.Cost())
			}
			if sum.LogicalAccesses == 0 {
				t.Fatal("concurrent phase charged no accesses")
			}
			if sum.NodeAccesses+sum.BufferHits != sum.LogicalAccesses {
				t.Fatalf("inconsistent cost %+v", sum)
			}
			if bufferPages == 0 && sum.BufferHits != 0 {
				t.Fatalf("buffer hits without a buffer: %+v", sum)
			}
		})
	}
}

// TestGroupNNBatchMatchesSerial drives the batch engine across worker
// counts and checks it returns exactly the serial answers with exact
// per-query costs.
func TestGroupNNBatchMatchesSerial(t *testing.T) {
	ix, groups := concurrencyFixture(t, 0)
	want := make([][]gnn.Result, len(groups))
	wantCost := make([]gnn.Cost, len(groups))
	for g := range groups {
		res, cost, err := ix.GroupNNWithCost(groups[g], gnn.WithK(4))
		if err != nil {
			t.Fatal(err)
		}
		want[g], wantCost[g] = res, cost
	}
	for _, workers := range []int{0, 1, 2, 8} {
		ix.ResetCost()
		got := ix.GroupNNBatch(groups, gnn.WithK(4), gnn.WithParallelism(workers))
		if len(got) != len(groups) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(got), len(groups))
		}
		var sum gnn.Cost
		for g := range got {
			if got[g].Err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, g, got[g].Err)
			}
			if !reflect.DeepEqual(got[g].Results, want[g]) {
				t.Fatalf("workers=%d query %d diverged from serial run", workers, g)
			}
			if got[g].Cost != wantCost[g] {
				t.Fatalf("workers=%d query %d: cost %+v, want %+v", workers, g, got[g].Cost, wantCost[g])
			}
			sum.Add(got[g].Cost)
		}
		if sum != ix.Cost() {
			t.Fatalf("workers=%d: batch cost sum %+v != aggregate %+v", workers, sum, ix.Cost())
		}
	}
}

// TestGroupNNBatchPerQueryErrors: one bad query must not poison the batch.
func TestGroupNNBatchPerQueryErrors(t *testing.T) {
	ix, groups := concurrencyFixture(t, 0)
	queries := [][]gnn.Point{groups[0], nil, groups[1]}
	got := ix.GroupNNBatch(queries, gnn.WithParallelism(2))
	if got[0].Err != nil || got[2].Err != nil {
		t.Fatalf("good queries failed: %v, %v", got[0].Err, got[2].Err)
	}
	if got[1].Err == nil {
		t.Fatal("empty query group did not fail")
	}
}

// TestConcurrentDiskQueries exercises the disk-resident read path under
// concurrency: a shared QuerySet and index answer the same F-MBM/F-MQM
// query from several goroutines.
func TestConcurrentDiskQueries(t *testing.T) {
	ix, groups := concurrencyFixture(t, 0)
	flat := make([]gnn.Point, 0, 24*8)
	for _, g := range groups {
		flat = append(flat, g...)
	}
	qs, err := gnn.NewQuerySet(flat, gnn.QuerySetConfig{BlockPoints: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []gnn.DiskAlgorithm{gnn.DiskFMQM, gnn.DiskFMBM} {
		want, _, err := ix.GroupNNFromSetWithCost(qs, algo, gnn.WithK(2))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _, err := ix.GroupNNFromSetWithCost(qs, algo, gnn.WithK(2))
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("%v: concurrent result diverged", algo)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestNewIndexUnreadRace runs writers and readers against one NewIndex
// from before its first read: two goroutines Insert and Delete while
// others call Len, Stats and WriteSnapshot on the unread index, then
// Bounds and a first GroupNN pack it mid-stream. Run it under -race: the
// buffered points are guarded by the writer lock, so nothing may race.
// Afterwards the index holds exactly the surviving points and answers as
// a bulk load of them does.
func TestNewIndexUnreadRace(t *testing.T) {
	ix, err := gnn.NewIndex(gnn.IndexConfig{NodeCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 2, 600
	pts := make([][]gnn.Point, writers)
	rng := rand.New(rand.NewSource(7))
	for w := range pts {
		pts[w] = make([]gnn.Point, perWriter)
		for i := range pts[w] {
			pts[w][i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
		}
	}
	group := []gnn.Point{{400, 400}, {600, 450}, {500, 620}}
	// A writer deletes every third point it inserted, three inserts
	// later; halfway through it lets the first reads go.
	deleted := func(i int) bool { return i%3 == 0 && i+3 < perWriter }
	var (
		writing, reading sync.WaitGroup
		half             = make(chan struct{})
		halfOnce         sync.Once
		done             = make(chan struct{})
	)
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i, p := range pts[w] {
				if err := ix.Insert(p, int64(w*perWriter+i)); err != nil {
					t.Error(err)
					return
				}
				if j := i - 3; j >= 0 && deleted(j) && !ix.Delete(pts[w][j], int64(w*perWriter+j)) {
					t.Errorf("writer %d: delete of point %d failed", w, j)
				}
				if i == perWriter/2 {
					halfOnce.Do(func() { close(half) })
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				switch r {
				case 0:
					if n := ix.Len(); n < 0 || n > writers*perWriter {
						t.Errorf("Len %d", n)
					}
				case 1:
					if st := ix.Stats(); st.Dim != 2 {
						t.Errorf("Stats %+v", st)
					}
				case 2:
					if err := ix.WriteSnapshot(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}(r)
	}
	reading.Add(1)
	go func() {
		defer reading.Done()
		<-half
		ix.Bounds()
		if _, err := ix.GroupNN(group, gnn.WithK(4)); err != nil {
			t.Error(err)
		}
	}()
	writing.Wait()
	close(done)
	reading.Wait()

	var live []gnn.Point
	var ids []int64
	for w := range pts {
		for i, p := range pts[w] {
			if !deleted(i) {
				live, ids = append(live, p), append(ids, int64(w*perWriter+i))
			}
		}
	}
	if ix.Len() != len(live) {
		t.Fatalf("Len %d after the writes, want %d", ix.Len(), len(live))
	}
	built, err := gnn.BuildIndex(live, ids, gnn.IndexConfig{NodeCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.GroupNN(group, gnn.WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	want, err := built.GroupNN(group, gnn.WithK(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, bulk load %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("rank %d: %v, bulk load %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

package gnn_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnn"
)

// cancelFixture builds a dataset large enough that a traversal spans
// many cancellation strides, plus one spread-out query group.
func cancelFixture(t *testing.T, n int) (*gnn.Index, []gnn.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	pts := make([]gnn.Point, n)
	for i := range pts {
		pts[i] = gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	ix, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	query := []gnn.Point{{10, 10}, {990, 990}, {10, 990}, {990, 10}}
	return ix, query
}

// TestContextLive checks the happy path: a live context changes nothing
// — identical results to the context-free call, for every algorithm.
func TestContextLive(t *testing.T) {
	ix, query := cancelFixture(t, 5000)
	for _, algo := range []gnn.Algorithm{gnn.AlgoMQM, gnn.AlgoSPM, gnn.AlgoMBM, gnn.AlgoBruteForce} {
		want, err := ix.GroupNN(query, gnn.WithAlgorithm(algo), gnn.WithK(5))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		got, err := ix.GroupNNContext(ctx, query, gnn.WithAlgorithm(algo), gnn.WithK(5))
		cancel()
		if err != nil {
			t.Fatalf("%v under live context: %v", algo, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d results under context, %d without", algo, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
				t.Fatalf("%v: result %d diverged: %+v vs %+v", algo, i, got[i], want[i])
			}
		}
	}
}

// TestContextPreCanceled checks that a context dead on arrival fails
// fast with the typed error that wraps its context counterpart.
func TestContextPreCanceled(t *testing.T) {
	ix, query := cancelFixture(t, 1000)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.GroupNNContext(ctx, query); !errors.Is(err, gnn.ErrCanceled) {
		t.Fatalf("canceled context: got %v, want ErrCanceled", err)
	}
	if _, err := ix.GroupNNContext(ctx, query); !errors.Is(err, context.Canceled) {
		t.Fatal("ErrCanceled must also match context.Canceled")
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := ix.GroupNNContext(dctx, query); !errors.Is(err, gnn.ErrDeadlineExceeded) {
		t.Fatalf("expired context: got %v, want ErrDeadlineExceeded", err)
	}
	if _, err := ix.GroupNNContext(dctx, query); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrDeadlineExceeded must also match context.DeadlineExceeded")
	}
}

// TestContextMidTraversalCancel cancels while queries are running and
// checks every traversal unwinds with the typed error (never hangs, never
// panics). Cancellation lands mid-flight or pre-start nondeterministically,
// so accept either typed failure arriving, but require that once canceled,
// a subsequent query fails immediately.
func TestContextMidTraversalCancel(t *testing.T) {
	ix, query := cancelFixture(t, 30000)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				_, err := ix.GroupNNContext(ctx, query, gnn.WithK(32), gnn.WithAlgorithm(gnn.AlgoMQM))
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	cancel()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, gnn.ErrCanceled) {
			t.Fatalf("worker %d: got %v, want ErrCanceled", i, err)
		}
	}
}

// TestContextSharded exercises the forked per-shard checks: live context
// matches the plain call, canceled context fails typed.
func TestContextSharded(t *testing.T) {
	ix, query := cancelFixture(t, 5000)
	pts := make([]gnn.Point, 0, 5000)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 5000; i++ {
		pts = append(pts, gnn.Point{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	sx, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()

	want, err := ix.GroupNN(query, gnn.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sx.GroupNNContext(context.Background(), query, gnn.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("sharded context result %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sx.GroupNNContext(ctx, query); !errors.Is(err, gnn.ErrCanceled) {
		t.Fatalf("sharded canceled: got %v, want ErrCanceled", err)
	}
}

// TestBatchContext checks the batch semantics: a canceled context fails
// the batch call and every not-yet-started query entry, with typed errors
// in both places.
func TestBatchContext(t *testing.T) {
	ix, query := cancelFixture(t, 2000)
	queries := make([][]gnn.Point, 16)
	for i := range queries {
		queries[i] = query
	}

	out, err := ix.GroupNNBatchContext(context.Background(), queries, gnn.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r.Err != nil || len(r.Results) != 3 {
			t.Fatalf("batch entry %d: err=%v results=%d", i, r.Err, len(r.Results))
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err = ix.GroupNNBatchContext(ctx, queries, gnn.WithK(3))
	if !errors.Is(err, gnn.ErrCanceled) {
		t.Fatalf("batch under canceled context: err=%v, want ErrCanceled", err)
	}
	for i, r := range out {
		if !errors.Is(r.Err, gnn.ErrCanceled) {
			t.Fatalf("batch entry %d: err=%v, want ErrCanceled", i, r.Err)
		}
	}
}

// TestCloseDrainsInflight is the regression gate for refcounted Close:
// closing a mapped index while queries hammer it must neither fault nor
// corrupt results — inflight queries finish against the live mapping,
// later ones fail with ErrSnapshotClosed. Besides memory-resident
// queries, workers run the disk family (F-MQM, F-MBM), GCP with the
// mapped index on either side, WriteSnapshot, and writes: a Delete of an
// absent entry counts the base occurrences, reading the arena, between
// an Insert and the Delete that removes it again. Every call that reads
// the arena runs under Close. The write window is short and inflight
// queries delay the unmap past it, so every other round runs the writers
// alone, and there are enough rounds for the window to meet the unmap.
func TestCloseDrainsInflight(t *testing.T) {
	pts, ix, queries := snapshotFixture(t, 4000, 23)
	dir := t.TempDir()
	path := writeSnapFile(t, dir, "ix.snap", ix.WriteSnapshotFile)
	qix, err := gnn.BuildIndex(queries[0], nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qset, err := gnn.NewQuerySet(queries[1], gnn.QuerySetConfig{BlockPoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each op fails on an error or on a short answer.
	want4 := func(res []gnn.Result, err error) error {
		if err == nil && len(res) != 4 {
			return fmt.Errorf("%d results, want 4", len(res))
		}
		return err
	}
	var absent atomic.Int64 // ids no entry carries: -1, -2, ...
	for round := 0; round < 40; round++ {
		mx, err := gnn.OpenSnapshotMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		ops := []func(i int) error{
			func(i int) error { return want4(mx.GroupNN(queries[i%len(queries)], gnn.WithK(4))) },
			func(int) error { return want4(mx.GroupNNFromSet(qset, gnn.DiskFMQM, gnn.WithK(4))) },
			func(int) error { return want4(mx.GroupNNFromSet(qset, gnn.DiskFMBM, gnn.WithK(4))) },
			func(int) error { return want4(mx.GroupNNClosestPairs(qix, 0, gnn.WithK(4))) },
			func(int) error {
				res, err := qix.GroupNNClosestPairs(mx, 0)
				if err == nil && len(res) != 1 {
					return fmt.Errorf("%d results, want 1", len(res))
				}
				return err
			},
			func(int) error { return mx.WriteSnapshot(io.Discard) },
			func(i int) error { return deleteInsertDelete(mx, pts[i%len(pts)], -absent.Add(1)) },
		}
		if round%2 == 1 {
			ops = ops[len(ops)-1:] // writers alone
		}
		closeUnderStorm(t, mx, ops, max(2*len(ops), 4), 2*time.Millisecond)
		if _, err := mx.GroupNN(queries[0]); !errors.Is(err, gnn.ErrSnapshotClosed) {
			t.Fatalf("query after close: got %v, want ErrSnapshotClosed", err)
		}
	}
}

// deleteInsertDelete deletes the absent entry (p, id) — a delete that
// must count p's base occurrences — then inserts it and deletes it again,
// leaving the overlay as it found it. Only the insert reports a closed
// index; a delete on one reports false.
func deleteInsertDelete(m *gnn.Index, p gnn.Point, id int64) error {
	if m.Delete(p, id) {
		return fmt.Errorf("deleted absent entry %d", id)
	}
	if err := m.Insert(p, id); err != nil {
		return err
	}
	m.Delete(p, id)
	return nil
}

// closeUnderStorm runs workers goroutines, worker w calling ops[w %
// len(ops)] in a loop, closes c after d (twice: Close is idempotent) and
// waits for them. A worker stops at the first error, which must be
// ErrSnapshotClosed; ErrPendingMutations is the disk family's refusal
// while a writer's insert is in the overlay, and the worker goes on.
func closeUnderStorm(t *testing.T, c io.Closer, ops []func(i int) error, workers int, d time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				err := ops[w%len(ops)](w + i)
				if err == nil || errors.Is(err, gnn.ErrPendingMutations) {
					continue
				}
				if !errors.Is(err, gnn.ErrSnapshotClosed) {
					t.Errorf("worker %d: unexpected error %v", w, err)
				}
				return
			}
		}(w)
	}
	close(start)
	time.Sleep(d)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	wg.Wait()
}

// TestShardedCloseDrainsInflight is TestCloseDrainsInflight for the
// sharded mapped open, whose queries scatter over every shard of the one
// mapping while Close drains them; the workers query, write snapshots and
// write, with every other round left to the writers alone.
func TestShardedCloseDrainsInflight(t *testing.T) {
	pts, _, queries := snapshotFixture(t, 4000, 29)
	sx, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := writeSnapFile(t, dir, "sx.snap", sx.WriteSnapshotFile)
	sx.Close()
	var absent atomic.Int64
	for round := 0; round < 80; round++ {
		mx, err := gnn.OpenShardedSnapshotMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		ops := []func(i int) error{
			func(i int) error {
				_, err := mx.GroupNN(queries[i%len(queries)], gnn.WithK(4))
				return err
			},
			func(int) error { return mx.WriteSnapshot(io.Discard) },
			func(i int) error { return deleteInsertDelete(mx, pts[i%len(pts)], -absent.Add(1)) },
		}
		if round%2 == 1 {
			ops = ops[len(ops)-1:] // writers alone
		}
		closeUnderStorm(t, mx, ops, max(3*len(ops), 4), 2*time.Millisecond)
		if _, err := mx.GroupNN(queries[0]); !errors.Is(err, gnn.ErrSnapshotClosed) {
			t.Fatalf("query after close: got %v, want ErrSnapshotClosed", err)
		}
	}
}

// TestCloseDrainsReleasedMapping storms a mapped index, plain and
// sharded, while compactions swap heap bases over the mapped one and so
// release the file: queries, iterators and deletes that loaded the
// mapped view must finish on it before the unmap, the ones that start
// later must run on the heap base, and a Close that follows a release
// must neither fault nor unmap twice.
func TestCloseDrainsReleasedMapping(t *testing.T) {
	pts, ix, queries := snapshotFixture(t, 4000, 37)
	sx, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.Close()
	dir := t.TempDir()
	plainPath := writeSnapFile(t, dir, "ix.snap", ix.WriteSnapshotFile)
	shardedPath := writeSnapFile(t, dir, "sx.snap", sx.WriteSnapshotFile)
	open := map[string]func() (*gnn.Index, error){
		"plain":   func() (*gnn.Index, error) { return gnn.OpenSnapshotMapped(plainPath) },
		"sharded": func() (*gnn.Index, error) { return gnn.OpenShardedSnapshotMapped(shardedPath) },
	}
	var absent, fresh atomic.Int64
	for round := 0; round < 6; round++ {
		for _, kind := range []string{"plain", "sharded"} {
			mx, err := open[kind]()
			if err != nil {
				t.Fatal(err)
			}
			if err := mx.StartCompactor(gnn.CompactorConfig{Threshold: 32, Interval: time.Millisecond}); err != nil {
				t.Fatal(err)
			}
			ops := []func(i int) error{
				func(i int) error {
					res, err := mx.GroupNN(queries[i%len(queries)], gnn.WithK(4))
					if err == nil && len(res) != 4 {
						return fmt.Errorf("%d results, want 4", len(res))
					}
					return err
				},
				func(i int) error {
					it, err := mx.GroupNNIterator(queries[i%len(queries)])
					if err != nil {
						return err
					}
					defer it.Close()
					for j := 0; j < 8; j++ {
						if _, ok := it.Next(); !ok {
							return fmt.Errorf("iterator ended after %d results", j)
						}
					}
					return nil
				},
				func(i int) error { return deleteInsertDelete(mx, pts[i%len(pts)], -absent.Add(1)) },
				func(i int) error { return mx.Insert(pts[i%len(pts)], 1_000_000+fresh.Add(1)) },
				func(int) error { return mx.Compact() },
			}
			closeUnderStorm(t, mx, ops, 2*len(ops), 20*time.Millisecond)
			if _, err := mx.GroupNN(queries[0]); !errors.Is(err, gnn.ErrSnapshotClosed) {
				t.Fatalf("%s: query after close: got %v, want ErrSnapshotClosed", kind, err)
			}
		}
	}
}

// TestIteratorHoldsCloseOpen checks that an open iterator blocks Close
// until released, and that exhaustion releases automatically.
func TestIteratorHoldsCloseOpen(t *testing.T) {
	_, ix, queries := snapshotFixture(t, 1500, 31)
	dir := t.TempDir()
	path := writeSnapFile(t, dir, "ix.snap", ix.WriteSnapshotFile)
	mx, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}

	it, err := mx.GroupNNIterator(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); !ok {
		t.Fatal("iterator empty")
	}
	closed := make(chan error, 1)
	go func() { closed <- mx.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while an iterator was open")
	case <-time.After(20 * time.Millisecond):
	}
	it.Close()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not finish after iterator release")
	}

	// Exhaustion auto-releases: drain a fresh mapped index's iterator
	// fully, never call Close on it, and the index must still close.
	mx2, err := gnn.OpenSnapshotMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	it2, err := mx2.GroupNNIterator(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := it2.Next(); !ok {
			break
		}
	}
	done := make(chan error, 1)
	go func() { done <- mx2.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on a fully drained iterator")
	}
}

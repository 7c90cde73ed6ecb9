package gnn

import (
	"context"
	"fmt"

	"gnn/internal/core"
)

// Cancellation errors, re-exported from the query kernels. Both wrap
// their context counterpart, so errors.Is matches either the typed
// sentinel or context.Canceled / context.DeadlineExceeded.
var (
	// ErrCanceled reports a query abandoned mid-traversal because its
	// context was canceled.
	ErrCanceled = core.ErrCanceled
	// ErrDeadlineExceeded reports a query abandoned mid-traversal
	// because its context's deadline passed.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
)

// GroupNNContext is GroupNN under a context: the traversal polls ctx at
// bounded intervals (every few hundred node or point visits) and, once
// it fires, unwinds and returns ErrCanceled or ErrDeadlineExceeded. A
// context that can never fire (context.Background()) adds no overhead.
// Each shard of a partitioned index polls the context independently
// (forked checks, no cross-shard synchronisation), so the whole scatter
// unwinds within a bounded number of node visits of the context firing.
// Cost accounting is exact up to the stop: the index-wide counters
// accrue whatever the abandoned traversal actually touched.
func (ix *Index) GroupNNContext(ctx context.Context, query []Point, opts ...QueryOption) ([]Result, error) {
	res, _, err := ix.GroupNNWithCostContext(ctx, query, opts...)
	return res, err
}

// GroupNNWithCostContext is GroupNNContext returning the query's own
// I/O cost alongside the results. On cancellation the returned Cost
// holds the partial cost of the abandoned traversal.
func (ix *Index) GroupNNWithCostContext(ctx context.Context, query []Point, opts ...QueryOption) ([]Result, Cost, error) {
	c := buildConfig(opts)
	c.cancel = core.NewCancelCheck(ctx)
	return ix.groupNN(query, c, nil, wideScatter)
}

// GroupNNBatchContext is GroupNNBatch under a context. Queries the
// batch had not started when the context fired fail with ErrCanceled /
// ErrDeadlineExceeded in their own entry; queries already running are
// stopped by their traversal's own poll. The error return is nil when
// the context outlived the batch, the typed context error otherwise —
// per-query entries remain individually meaningful either way. Each
// query gets its own forked cancel check (a CancelCheck belongs to one
// goroutine; pool workers run concurrently).
func (ix *Index) GroupNNBatchContext(ctx context.Context, queries [][]Point, opts ...QueryOption) ([]BatchResult, error) {
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out, core.ContextErr(ctx)
	}
	c := buildConfig(opts)
	root := core.NewCancelCheck(ctx)
	core.RunPooled(len(queries), c.parallelism, func(i int, ec *core.ExecContext) {
		// Contain per-query panics: one poisoned query must fail its own
		// entry, not take down the batch's worker pool (and, behind the
		// server, the whole process).
		defer func() {
			if p := recover(); p != nil {
				out[i].Err = fmt.Errorf("gnn: query panic: %v", p)
			}
		}()
		qc := c
		qc.cancel = root.Fork()
		out[i].Results, out[i].Cost, out[i].Err = ix.groupNN(queries[i], qc, ec, sequentialScatter)
	})
	return out, core.ContextErr(ctx)
}

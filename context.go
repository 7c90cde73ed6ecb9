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
	return ix.groupNN(query, c, nil)
}

// GroupNNContext is GroupNN under a context for the sharded index. Each
// shard of the scatter polls the context independently (forked checks,
// no cross-shard synchronisation) and the whole scatter unwinds within
// a bounded number of node visits of the context firing.
func (sx *ShardedIndex) GroupNNContext(ctx context.Context, query []Point, opts ...QueryOption) ([]Result, error) {
	res, _, err := sx.GroupNNWithCostContext(ctx, query, opts...)
	return res, err
}

// GroupNNWithCostContext is GroupNNContext returning the query's own
// I/O cost — the exact sum of per-shard accesses up to the stop.
func (sx *ShardedIndex) GroupNNWithCostContext(ctx context.Context, query []Point, opts ...QueryOption) ([]Result, Cost, error) {
	c := buildConfig(opts)
	c.cancel = core.NewCancelCheck(ctx)
	return sx.groupNN(query, c, nil, defaultScatterWorkers())
}

// GroupNNBatchContext is GroupNNBatch under a context. Queries the
// batch had not started when the context fired fail with ErrCanceled /
// ErrDeadlineExceeded in their own entry; queries already running are
// stopped by their traversal's own poll. The error return is nil when
// the context outlived the batch, the typed context error otherwise —
// per-query entries remain individually meaningful either way.
func (ix *Index) GroupNNBatchContext(ctx context.Context, queries [][]Point, opts ...QueryOption) ([]BatchResult, error) {
	return batchContext(ctx, queries, opts, func(q []Point, c queryConfig, ec *core.ExecContext) ([]Result, Cost, error) {
		return ix.groupNN(q, c, ec)
	})
}

// GroupNNBatchContext is GroupNNBatch under a context for the sharded
// index; semantics as for Index.GroupNNBatchContext.
func (sx *ShardedIndex) GroupNNBatchContext(ctx context.Context, queries [][]Point, opts ...QueryOption) ([]BatchResult, error) {
	return batchContext(ctx, queries, opts, func(q []Point, c queryConfig, ec *core.ExecContext) ([]Result, Cost, error) {
		return sx.groupNN(q, c, ec, 1)
	})
}

// batchContext runs the pooled batch loop with a per-query forked
// cancel check (a CancelCheck belongs to one goroutine; pool workers
// run concurrently, so each query gets its own).
func batchContext(ctx context.Context, queries [][]Point, opts []QueryOption,
	run func([]Point, queryConfig, *core.ExecContext) ([]Result, Cost, error)) ([]BatchResult, error) {
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
		out[i].Results, out[i].Cost, out[i].Err = run(queries[i], qc, ec)
	})
	return out, core.ContextErr(ctx)
}

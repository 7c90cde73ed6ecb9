package gnn

import "context"

// BatchResult is the outcome of one query of a GroupNNBatch call.
type BatchResult struct {
	// Results are the query's group nearest neighbors, ascending by
	// aggregate distance.
	Results []Result
	// Cost is the query's own I/O cost.
	Cost Cost
	// Err is the query's error, if any. Queries fail independently: one
	// malformed group does not abort the batch.
	Err error
}

// GroupNNBatch answers many GNN queries concurrently against the shared
// index, using a worker pool of WithParallelism(n) goroutines (default
// GOMAXPROCS). Options apply to every query. The result slice is parallel
// to queries; each entry carries its own results, per-query cost and
// error. Because every query runs in its own execution context, the batch
// may itself run concurrently with other queries or batches.
//
// Each worker holds one pooled execution context for the whole batch, so
// every query after a worker's first reuses warm scratch (heaps, candidate
// buffers, result lists) instead of allocating. On a partitioned index
// each worker answers one query at a time and scans that query's shards
// sequentially from its own goroutine — batch throughput comes from
// concurrent queries, and the shared pruning bound cascades from shard to
// shard within each query, so later shards start already tightly
// bounded. A panic inside one query fails that query's entry, not the
// batch. It is GroupNNBatchContext under a context that never fires.
func (ix *Index) GroupNNBatch(queries [][]Point, opts ...QueryOption) []BatchResult {
	out, _ := ix.GroupNNBatchContext(context.Background(), queries, opts...)
	return out
}

package gnn

// WithGenericMax forces WithAggregate(MaxDist) queries onto the generic
// per-member pruning bounds instead of the dedicated minimum-enclosing-
// ball kernel MBM dispatches to by default. Results are identical either
// way — only node accesses differ (the dedicated kernel's are never
// higher). It exists only in tests, as the reference path of the
// differential suites; it has no effect on SUM or MIN queries.
func WithGenericMax() QueryOption { return func(c *queryConfig) { c.genericMax = true } }

// WithShards pins the scatter width of a query on a partitioned index
// (BuildShardedIndex, or a sharded snapshot), which the call sets
// otherwise: GOMAXPROCS for a single query, 1 inside a batch worker.
// WithShards(1) is the deterministic sequential scatter the differential
// suites compare costs on; a width above 1 runs the shards on pooled
// workers. Results never depend on it. It has no effect on an
// unpartitioned index.
func WithShards(n int) QueryOption { return func(c *queryConfig) { c.shards = n } }

// ShardSizes returns the point counts of ix's current base arenas in
// shard order: one count on an unpartitioned index. Un-compacted overlay
// writes are not included.
func ShardSizes(ix *Index) []int {
	var sizes []int
	for _, p := range ix.view.Load().Arenas() {
		sizes = append(sizes, p.Len())
	}
	return sizes
}

package gnn

// WithGenericMax forces WithAggregate(MaxDist) queries onto the generic
// per-member pruning bounds instead of the dedicated minimum-enclosing-
// ball kernel MBM dispatches to by default. Results are identical either
// way — only node accesses differ (the dedicated kernel's are never
// higher). It exists only in tests, as the reference path of the
// differential suites; it has no effect on SUM or MIN queries.
func WithGenericMax() QueryOption { return func(c *queryConfig) { c.genericMax = true } }

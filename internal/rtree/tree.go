// Package rtree implements a packed R-tree over d-dimensional points
// together with every traversal the paper builds on: range search,
// depth-first nearest neighbor [RKV95], best-first (incremental) nearest
// neighbor [HS99] and incremental closest pairs over two trees [HS98,
// CMTV00].
//
// Queries traverse a Packed arena: flat structure-of-arrays node storage
// that the bulk loaders (PackSTR) write directly and that a snapshot's
// own columns back in place (PackedFromSnapshotBorrowed). The arena is
// memory-resident but page-structured: every node keeps its page
// identifier and all query traversals are routed through a per-query
// Reader execution context, which charges each node access to the
// query's own pagestore.CostTracker and to the tree's shared
// pagestore.Accountant — reproducing the paper's node-access (NA)
// metric, optionally through an LRU buffer, while keeping unlimited
// concurrent read traversals safe.
//
// Query algorithms outside this package (SPM, MBM, F-MBM in internal/core)
// drive their own traversals through the exported Reader.PackedRoot and
// Reader.PackedChild accessors, so their node accesses are accounted
// identically, and the fused kernels in internal/geom turn their per-node
// loops into streaming passes over contiguous coordinate arrays.
//
// A Tree is the immutable metadata shell of an arena (Packed.Tree) that
// the query layers pass around.
package rtree

import (
	"fmt"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// DefaultMaxEntries matches the paper's setup: 1 KB pages holding 50
// entries per node.
const DefaultMaxEntries = pagestore.DefaultPageCapacity

// Config parameterises a tree.
type Config struct {
	// Dim is the dimensionality of indexed points (default 2).
	Dim int
	// MaxEntries is the node capacity M (default DefaultMaxEntries).
	MaxEntries int
	// MinEntries is the minimum fill m (default 40% of MaxEntries).
	MinEntries int
	// Accountant receives one access per node visited by query traversals,
	// shared by all concurrent readers of the tree. When nil a private
	// unbuffered accountant is allocated.
	Accountant *pagestore.Accountant
	// FirstPage offsets the page IDs assigned to nodes so several trees
	// can share one LRU buffer without collisions.
	FirstPage pagestore.PageID
}

func (c Config) withDefaults() (Config, error) {
	if c.Dim == 0 {
		c.Dim = 2
	}
	if c.Dim < 1 {
		return c, fmt.Errorf("rtree: dimension %d < 1", c.Dim)
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = DefaultMaxEntries
	}
	if c.MaxEntries < 4 {
		return c, fmt.Errorf("rtree: MaxEntries %d < 4", c.MaxEntries)
	}
	if c.MinEntries == 0 {
		c.MinEntries = (c.MaxEntries * 2) / 5
		if c.MinEntries < 2 {
			c.MinEntries = 2
		}
	}
	if c.MinEntries < 1 || c.MinEntries > c.MaxEntries/2 {
		return c, fmt.Errorf("rtree: MinEntries %d not in [1, MaxEntries/2=%d]",
			c.MinEntries, c.MaxEntries/2)
	}
	if c.Accountant == nil {
		c.Accountant = pagestore.NewAccountant(0)
	}
	return c, nil
}

// Tree is the metadata shell of a packed arena: its configuration, size
// and page range, which the query layers pass around. It is
// immutable, so any number of queries may share it; a change to the
// points is a new arena.
type Tree struct {
	cfg      Config
	size     int
	nextPage pagestore.PageID
	// arena is the packed arena this tree is the shell of: Bounds and
	// CheckInvariants are served from it.
	arena *Packed
}

// Config returns the tree's effective configuration (defaults applied;
// for snapshot-loaded trees, the writer's structural parameters). The
// overlay layer uses it to bulk-load compacted replacements and delta
// trees with identical geometry.
func (t *Tree) Config() Config { return t.cfg }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.cfg.Dim }

// Accountant returns the shared accountant charged by all traversals.
func (t *Tree) Accountant() *pagestore.Accountant { return t.cfg.Accountant }

// Pages returns the number of node pages the tree's page range spans.
func (t *Tree) Pages() int64 { return int64(t.nextPage - t.cfg.FirstPage) }

// Bounds returns the MBR of the indexed points; ok is false when empty.
func (t *Tree) Bounds() (geom.Rect, bool) { return t.arena.Bounds() }

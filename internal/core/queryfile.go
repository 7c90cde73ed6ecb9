package core

import (
	"fmt"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// DefaultBlockPoints is the paper's block size for disk-resident query
// sets: "split into blocks of 10000 points, that fit in memory" (§5.2).
const DefaultBlockPoints = 10000

// QueryFile models a disk-resident, non-indexed query set Q, prepared as
// §4.2/4.3 prescribe: the points are sorted by Hilbert value and packed
// into pages; consecutive pages form memory-sized blocks Q_1..Q_m. The
// block MBRs M_i and cardinalities n_i are retained in memory (they are
// by-products of the sorting pass, whose cost the paper excludes).
//
// Reading a block charges one physical page read per page it spans to the
// file's shared Accountant (optionally via an LRU buffer) and to the
// caller's per-query tracker. A QueryFile is immutable after construction,
// so concurrent queries may read it freely.
type QueryFile struct {
	file   *pagestore.PointFile
	blocks [][]geom.Point // decoded blocks (charging happens in file)
	mbrs   []geom.Rect
	ns     []int
	total  int
}

// NewQueryFile builds a QueryFile from 2-D query points. blockPoints
// defaults to DefaultBlockPoints when zero; acct may be nil (private
// accounting); basePage offsets the file's page IDs for shared buffers.
func NewQueryFile(pts []geom.Point, blockPoints int, acct *pagestore.Accountant, basePage pagestore.PageID) (*QueryFile, error) {
	if len(pts) == 0 {
		return nil, ErrEmptyQuery
	}
	for i, p := range pts {
		if len(p) != 2 {
			return nil, fmt.Errorf("core: query point %d is %d-dimensional; query files are 2-D", i, len(p))
		}
	}
	if blockPoints == 0 {
		blockPoints = DefaultBlockPoints
	}
	sorted := hilbertSortDataset(pts)
	pairs := make([][2]float64, len(sorted))
	for i, p := range sorted {
		pairs[i] = [2]float64{p[0], p[1]}
	}
	file, err := pagestore.NewPointFile(pairs, pagestore.DefaultPageCapacity, blockPoints, acct, basePage)
	if err != nil {
		return nil, err
	}
	qf := &QueryFile{file: file, total: len(sorted)}
	m := file.NumBlocks()
	qf.blocks = make([][]geom.Point, m)
	qf.mbrs = make([]geom.Rect, m)
	qf.ns = make([]int, m)
	for i := 0; i < m; i++ {
		lo := i * blockPoints
		hi := lo + blockPoints
		if hi > len(sorted) {
			hi = len(sorted)
		}
		qf.blocks[i] = sorted[lo:hi]
		qf.mbrs[i] = geom.BoundingRect(sorted[lo:hi])
		qf.ns[i] = hi - lo
	}
	return qf, nil
}

// NumBlocks returns m, the number of memory-sized blocks.
func (qf *QueryFile) NumBlocks() int { return len(qf.ns) }

// Len returns the total number of query points n.
func (qf *QueryFile) Len() int { return qf.total }

// BlockLen returns n_i without touching the disk.
func (qf *QueryFile) BlockLen(i int) int { return qf.ns[i] }

// MBR returns M_i without touching the disk.
func (qf *QueryFile) MBR(i int) geom.Rect { return qf.mbrs[i] }

// ReadBlock loads block i, charging its page reads to the file's
// accountant and the caller's tracker (nil for aggregate-only), and
// returns its points. The returned slice is shared and must be treated as
// read-only.
func (qf *QueryFile) ReadBlock(i int, tk *pagestore.CostTracker) ([]geom.Point, error) {
	if _, err := qf.file.ReadBlock(i, tk); err != nil { // charges the I/O
		return nil, err
	}
	return qf.blocks[i], nil
}

// Accountant exposes the file's shared accountant (page reads of Q).
func (qf *QueryFile) Accountant() *pagestore.Accountant { return qf.file.Accountant() }

// Pages returns the number of pages Q occupies.
func (qf *QueryFile) Pages() int { return qf.file.Pages() }

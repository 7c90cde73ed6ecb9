package core

import (
	"errors"
	"fmt"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// DefaultBlockPoints is the paper's block size for disk-resident query
// sets: "split into blocks of 10000 points, that fit in memory" (§5.2).
const DefaultBlockPoints = 10000

// QueryFile models a disk-resident, non-indexed query set Q, prepared as
// §4.2/4.3 prescribe: the points are sorted by Hilbert value and packed
// into pages of pagestore.DefaultPageCapacity points; consecutive pages
// form memory-sized blocks Q_1..Q_m. The block MBRs M_i and cardinalities
// n_i are retained in memory (they are by-products of the sorting pass,
// whose cost the paper excludes).
//
// Reading a block charges one physical page read per page it spans to the
// file's shared Accountant (optionally via an LRU buffer) and to the
// caller's per-query tracker. A QueryFile is immutable after construction,
// so concurrent queries may read it freely.
type QueryFile struct {
	blocks      [][]geom.Point // the Hilbert-sorted points, block by block
	mbrs        []geom.Rect
	blockPoints int
	total       int
	acct        *pagestore.Accountant
	basePage    pagestore.PageID
}

// errOutOfRange reports a block index beyond the end of a QueryFile.
var errOutOfRange = errors.New("core: query file block index out of range")

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
	if blockPoints < 1 {
		return nil, fmt.Errorf("core: block size %d < 1", blockPoints)
	}
	if acct == nil {
		acct = pagestore.NewAccountant(0)
	}
	sorted := hilbertSortDataset(pts)
	qf := &QueryFile{blockPoints: blockPoints, total: len(sorted), acct: acct, basePage: basePage}
	for lo := 0; lo < len(sorted); lo += blockPoints {
		blk := sorted[lo:min(lo+blockPoints, len(sorted))]
		qf.blocks = append(qf.blocks, blk)
		qf.mbrs = append(qf.mbrs, geom.BoundingRect(blk))
	}
	return qf, nil
}

// NumBlocks returns m, the number of memory-sized blocks.
func (qf *QueryFile) NumBlocks() int { return len(qf.blocks) }

// Len returns the total number of query points n.
func (qf *QueryFile) Len() int { return qf.total }

// BlockLen returns n_i without touching the disk.
func (qf *QueryFile) BlockLen(i int) int { return len(qf.blocks[i]) }

// MBR returns M_i without touching the disk.
func (qf *QueryFile) MBR(i int) geom.Rect { return qf.mbrs[i] }

// ReadBlock loads block i, charging one access per page it spans to the
// file's accountant and the caller's tracker (nil for aggregate-only),
// and returns its points. The returned slice is shared and must be
// treated as read-only.
func (qf *QueryFile) ReadBlock(i int, tk *pagestore.CostTracker) ([]geom.Point, error) {
	if i < 0 || i >= len(qf.blocks) {
		return nil, fmt.Errorf("%w: block %d of %d", errOutOfRange, i, len(qf.blocks))
	}
	lo := i * qf.blockPoints
	hi := lo + len(qf.blocks[i])
	for p := lo / pagestore.DefaultPageCapacity; p <= (hi-1)/pagestore.DefaultPageCapacity; p++ {
		qf.acct.Access(qf.basePage+pagestore.PageID(p), tk)
	}
	return qf.blocks[i], nil
}

// Pages returns the number of pages Q occupies.
func (qf *QueryFile) Pages() int {
	return (qf.total + pagestore.DefaultPageCapacity - 1) / pagestore.DefaultPageCapacity
}

// Package hilbert implements the 2-D Hilbert space-filling curve.
//
// The paper uses Hilbert ordering in three places: MQM sorts the query
// points by Hilbert value so consecutive point-NN searches touch nearby
// R-tree nodes (§3.1); F-MQM and F-MBM sort the disk-resident query file by
// Hilbert value before splitting it into memory-sized blocks (§4.2, §4.3);
// and Hilbert ordering is a standard R-tree bulk-loading strategy, which we
// expose through the rtree package.
//
// The encoding follows the classic iterative rotate/flip formulation: a
// curve of order k visits every cell of a 2^k × 2^k grid exactly once.
package hilbert

import (
	"cmp"
	"slices"
)

// DefaultOrder is the curve order used when sorting floating-point data:
// a 2^16 × 2^16 grid gives sub-meter resolution on the paper's
// [0,10000]² workspace while keeping values comfortably inside 32 bits.
const DefaultOrder = 16

// Encode returns the Hilbert value (distance along the curve) of grid cell
// (x, y) for a curve of the given order. x and y must lie in [0, 2^order).
// Out-of-range coordinates are clamped, which keeps the function total —
// callers sorting noisy data never crash, they just get edge ordering.
func Encode(order uint, x, y uint32) uint64 {
	max := uint32(1)<<order - 1
	if x > max {
		x = max
	}
	if y > max {
		y = max
	}
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = rotate(s, x, y, rx, ry)
	}
	return d
}

// Decode is the inverse of Encode: it maps a curve distance d back to the
// grid cell (x, y) it occupies on a curve of the given order.
func Decode(order uint, d uint64) (x, y uint32) {
	t := d
	for s := uint32(1); s < uint32(1)<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = rotate(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// rotate flips/rotates a quadrant so the curve pieces connect.
func rotate(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// Mapper quantises floating-point coordinates from an arbitrary bounding
// box onto the Hilbert grid, so real datasets can be curve-ordered.
type Mapper struct {
	order                  uint
	minX, minY             float64
	scaleX, scaleY         float64
	hasExtent              bool
	loX, loY, spanX, spanY float64
}

// NewMapper returns a Mapper for data inside the box [loX,hiX] × [loY,hiY].
// Degenerate extents (all points sharing a coordinate) are handled by
// mapping that axis to cell 0.
func NewMapper(order uint, loX, loY, hiX, hiY float64) *Mapper {
	m := &Mapper{order: order, minX: loX, minY: loY, loX: loX, loY: loY}
	cells := float64(uint64(1) << order)
	if hiX > loX {
		m.scaleX = (cells - 1) / (hiX - loX)
	}
	if hiY > loY {
		m.scaleY = (cells - 1) / (hiY - loY)
	}
	m.spanX, m.spanY = hiX-loX, hiY-loY
	m.hasExtent = true
	return m
}

// Value returns the Hilbert value of the (floating-point) coordinate pair.
func (m *Mapper) Value(x, y float64) uint64 {
	gx := uint32((x - m.minX) * m.scaleX)
	gy := uint32((y - m.minY) * m.scaleY)
	if x < m.minX {
		gx = 0
	}
	if y < m.minY {
		gy = 0
	}
	return Encode(m.order, gx, gy)
}

// Perm returns the permutation that orders n items by ascending Hilbert
// value of the coordinates at(i) reports: Perm(...)[rank] is the index of
// the item with that rank. Equal values keep their input order (stable),
// so the permutation is deterministic. It is the partitioning primitive of
// the sharded index: contiguous runs of the permutation are spatially
// coherent chunks of the data set.
func Perm(n int, m *Mapper, at func(i int) (x, y float64)) []int {
	// Sorting (value, index) pairs, all distinct, yields exactly the
	// stable order by value, without a stable sort's merge passes.
	type keyed struct {
		h uint64
		i int
	}
	keys := make([]keyed, n)
	for i := range keys {
		x, y := at(i)
		keys[i] = keyed{m.Value(x, y), i}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	idx := make([]int, n)
	for r, k := range keys {
		idx[r] = k.i
	}
	return idx
}

// SortByValue sorts items in place by ascending Hilbert value of the
// coordinates that at(i) reports. It is the single sorting entry point used
// by MQM, F-MQM, F-MBM and Hilbert bulk-loading.
func SortByValue(n int, m *Mapper, at func(i int) (x, y float64), swap func(i, j int)) {
	idx := Perm(n, m, at)
	n = len(idx)
	// Apply the permutation with the provided swap, tracking positions.
	pos := make([]int, n)  // pos[item] = current index of item
	item := make([]int, n) // item[index] = item currently at index
	for i := 0; i < n; i++ {
		pos[i], item[i] = i, i
	}
	for target, want := range idx {
		cur := pos[want]
		if cur == target {
			continue
		}
		swap(cur, target)
		other := item[target]
		pos[want], pos[other] = target, cur
		item[target], item[cur] = want, other
	}
}

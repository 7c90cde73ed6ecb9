// Package hilbert implements the 2-D Hilbert space-filling curve.
//
// The paper uses Hilbert ordering in three places: MQM sorts the query
// points by Hilbert value so consecutive point-NN searches touch nearby
// R-tree nodes (§3.1); F-MQM and F-MBM sort the disk-resident query file by
// Hilbert value before splitting it into memory-sized blocks (§4.2, §4.3);
// and Hilbert ordering is a standard R-tree bulk-loading strategy, which we
// expose through the rtree package.
//
// The curve follows the classic iterative rotate/flip formulation: a
// curve of order k visits every cell of a 2^k × 2^k grid exactly once.
// Decode applies the rule level by level; Encode applies it four levels
// at a time through a table derived from it.
package hilbert

import "gnn/internal/radix"

// DefaultOrder is the curve order used when sorting floating-point data:
// a 2^16 × 2^16 grid gives sub-meter resolution on the paper's
// [0,10000]² workspace while keeping values comfortably inside 32 bits.
const DefaultOrder = 16

// A curve state is the transform the levels above a cell apply to its
// remaining bits: swapState exchanges x and y, flipState complements
// both. The two commute, so a state is any combination of the two bits
// and composing transforms XORs them.
const (
	swapState = 1
	flipState = 2
)

// encodeTable advances the curve four levels per lookup. Entry
// state<<8 | xNibble<<4 | yNibble holds, above its low two bits, the
// four quadrant digits of those levels, most significant first; its low
// two bits hold the state the next four levels start in.
var encodeTable [4 << 8]uint16

func init() {
	for st := range 4 {
		for xy := range 256 {
			s, digits := st, 0
			for b := 3; b >= 0; b-- {
				rx, ry := xy>>(4+b)&1, xy>>b&1
				if s&flipState != 0 {
					rx, ry = rx^1, ry^1
				}
				if s&swapState != 0 {
					rx, ry = ry, rx
				}
				digits = digits<<2 | ((3 * rx) ^ ry)
				// rotate's rule: the lower quadrants swap, and the lower
				// right one also flips.
				if ry == 0 {
					s ^= swapState
					if rx == 1 {
						s ^= flipState
					}
				}
			}
			encodeTable[st<<8|xy] = uint16(digits<<2 | s)
		}
	}
}

// Encode returns the Hilbert value (distance along the curve) of grid cell
// (x, y) for a curve of the given order, 1 to 32. x and y must lie in
// [0, 2^order). Out-of-range coordinates are clamped, which keeps the
// function total — callers sorting noisy data never crash, they just get
// edge ordering.
//
// Encode reads four levels per table lookup. An order not divisible by
// four is padded with leading zero levels; each turns the curve by one
// swap, so an odd pad starts in the swapped state to cancel them.
func Encode(order uint, x, y uint32) uint64 {
	max := uint32(1)<<order - 1
	if x > max {
		x = max
	}
	if y > max {
		y = max
	}
	pad := -order & 3
	var s uint16
	if pad%2 == 1 {
		s = swapState
	}
	var d uint64
	for shift := int(order+pad) - 4; shift >= 0; shift -= 4 {
		e := encodeTable[s<<8|uint16(x>>shift&15)<<4|uint16(y>>shift&15)]
		d = d<<8 | uint64(e>>2)
		s = e & 3
	}
	return d
}

// Decode is the inverse of Encode: it maps a curve distance d back to the
// grid cell (x, y) it occupies on a curve of the given order, 1 to 32.
func Decode(order uint, d uint64) (x, y uint32) {
	t := d
	for l := uint(0); l < order; l++ {
		s := uint32(1) << l
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
	order          uint
	minX, minY     float64
	scaleX, scaleY float64
}

// NewMapper returns a Mapper for data inside the box [loX,hiX] × [loY,hiY].
// Degenerate extents (all points sharing a coordinate) are handled by
// mapping that axis to cell 0.
func NewMapper(order uint, loX, loY, hiX, hiY float64) *Mapper {
	m := &Mapper{order: order, minX: loX, minY: loY}
	cells := float64(uint64(1) << order)
	if hiX > loX {
		m.scaleX = (cells - 1) / (hiX - loX)
	}
	if hiY > loY {
		m.scaleY = (cells - 1) / (hiY - loY)
	}
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
// so the permutation is deterministic. The positions are the radix sort's
// own int32 values, so n must not exceed math.MaxInt32. The bulk loaders
// sort their curve values with radix.Sort in buffers they reuse; this is
// the same order.
func Perm(n int, m *Mapper, at func(i int) (x, y float64)) []int32 {
	keys := make([]uint64, n)
	pos := make([]int32, n)
	for i := range keys {
		x, y := at(i)
		keys[i], pos[i] = m.Value(x, y), int32(i)
	}
	radix.Sort(keys, pos, nil)
	return pos
}

// SortByValue sorts items in place by ascending Hilbert value of the
// coordinates that at(i) reports. It is the sorting entry point of MQM,
// F-MQM and F-MBM.
func SortByValue(n int, m *Mapper, at func(i int) (x, y float64), swap func(i, j int)) {
	idx := Perm(n, m, at)
	// Apply the permutation with the provided swap, tracking positions.
	pos := make([]int32, n)  // pos[item] = current index of item
	item := make([]int32, n) // item[index] = item currently at index
	for i := range pos {
		pos[i], item[i] = int32(i), int32(i)
	}
	for target, want := range idx {
		cur := pos[want]
		if int(cur) == target {
			continue
		}
		swap(int(cur), target)
		other := item[target]
		pos[want], pos[other] = int32(target), cur
		item[target], item[cur] = want, other
	}
}

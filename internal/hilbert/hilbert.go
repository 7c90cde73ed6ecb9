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
// Encode applies it four levels at a time through a table derived from
// the rule.
package hilbert

import (
	"cmp"

	"gnn/internal/radix"
)

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

// Words writes the radix word of every point of the columns xs and ys
// into words: the point's 32-bit curve value (Value's; the curve's order
// must be at most 16) with its low half cleared as the image, and its
// index as the position. Points whose images tie are ordered by their
// full values: see Order.
//
// Words is Value and Encode in one loop, with the curve's constants read
// once and unrolled into the two table lookups that yield the top half.
// Below order 16 a leading lookup may read zero nibbles; it adds no
// digits and turns the curve by four swaps, the identity, so the words
// hold what Encode computes.
func (m *Mapper) Words(xs, ys []float64, words []uint64) {
	minX, minY, scaleX, scaleY := m.minX, m.minY, m.scaleX, m.scaleY
	max := uint32(1)<<m.order - 1
	var start uint32
	if pad := -m.order & 3; pad%2 == 1 {
		start = swapState
	}
	t := &encodeTable
	ys, words = ys[:len(xs)], words[:len(xs)]
	for i, x := range xs {
		y := ys[i]
		gx := uint32((x - minX) * scaleX)
		gy := uint32((y - minY) * scaleY)
		if x < minX {
			gx = 0
		}
		if y < minY {
			gy = 0
		}
		gx, gy = min(gx, max), min(gy, max)
		e := t[start<<8|(gx>>12&15)<<4|gy>>12&15]
		d := uint64(e >> 2)
		e = t[uint32(e&3)<<8|(gx>>8&15)<<4|gy>>8&15]
		d = d<<8 | uint64(e>>2)
		words[i] = radix.Word(d<<16, i)
	}
}

// Order returns the radix order of the words Words writes for the
// columns xs and ys: by curve value, then by position. Words whose
// images tie are settled on their full values as the second key.
func (m *Mapper) Order(xs, ys []float64) radix.Order {
	return radix.ByKey(nil, func(p int) uint32 { return uint32(m.Value(xs[p], ys[p])) })
}

// Perm returns the permutation that orders n items by ascending Hilbert
// value of the coordinates at(i) reports: Perm(...)[rank] is the index of
// the item with that rank. Equal values keep their input order (stable),
// so the permutation is deterministic. n must not exceed math.MaxInt32.
// The values are sorted as radix words; on a curve of order above 16 a
// word holds a value's top 32 bits, and the full values settle ties.
func Perm(n int, m *Mapper, at func(i int) (x, y float64)) []int32 {
	shift := max(0, 2*int(m.order)-32)
	keys := make([]uint64, n)
	words := make([]uint64, 2*n)
	for i := range keys {
		x, y := at(i)
		keys[i] = m.Value(x, y)
		words[i] = radix.Word(keys[i]>>shift, i)
	}
	radix.Sort(words[:n], words[n:], radix.ByKey(func(p, q int) int { return cmp.Compare(keys[p], keys[q]) }, nil))
	pos := make([]int32, n)
	for r, w := range words[:n] {
		pos[r] = int32(radix.Pos(w))
	}
	return pos
}

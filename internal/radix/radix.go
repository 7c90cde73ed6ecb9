// Package radix orders the bulk loaders' points: a stable
// least-significant-digit radix sort of int32 positions by a uint64 key
// column. STR sorts the coordinates' order-preserving images
// (Float64Key) and the Hilbert packer and shard split sort curve values.
// The key column stays where it is, indexed by position, so a sort moves
// four bytes per point and no key travels with it. A stable sort on the
// key alone yields exactly the order a stable comparison sort on that
// key yields.
package radix

import "math"

// Float64Key returns an order-preserving image of v: for non-NaN a and
// b, a < b exactly when Float64Key(a) < Float64Key(b). -0 maps onto the
// image of +0, so the two zeros tie, as they do under <.
func Float64Key(v float64) uint64 {
	b := math.Float64bits(v)
	if v == 0 {
		b = 0
	}
	// A negative value flips every bit, so a larger magnitude sorts
	// first; a non-negative one sets the sign bit, so it sorts after
	// every negative.
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// A key is sorted in digits of digitBits bits, least significant first:
// six passes cover 64 bits, and one pass's counts fit in 8 KiB.
const (
	digitBits = 11
	buckets   = 1 << digitBits
	digits    = (64 + digitBits - 1) / digitBits
)

// Scratch is the buffer Sort moves positions through. The zero value is
// ready to use; Sort grows it to the longest input it has seen, so one
// Scratch serves a run of sorts with one allocation.
type Scratch struct {
	pos []int32
}

// Sort orders pos by ascending keys[pos[i]], keeping positions whose
// keys are equal in their input order. keys is read, never written, and
// every position must index it; pos may be any sub-slice of a longer
// permutation, such as one slab of an STR order. Sort makes one counting
// pass, then one scatter pass per digit, skipping a digit on which every
// key agrees. s is the scratch; nil allocates one for this call.
func Sort(keys []uint64, pos []int32, s *Scratch) {
	n := len(pos)
	if n < 2 {
		return
	}
	var counts [digits][buckets]uint32
	for _, p := range pos {
		k := keys[p]
		counts[0][k&(buckets-1)]++
		counts[1][k>>digitBits&(buckets-1)]++
		counts[2][k>>(2*digitBits)&(buckets-1)]++
		counts[3][k>>(3*digitBits)&(buckets-1)]++
		counts[4][k>>(4*digitBits)&(buckets-1)]++
		counts[5][k>>(5*digitBits)]++
	}
	if s == nil {
		s = new(Scratch)
	}
	if len(s.pos) < n {
		s.pos = make([]int32, n)
	}
	src, dst := pos, s.pos[:n]
	first := keys[pos[0]]
	for d := range counts {
		c := &counts[d]
		shift := digitBits * uint(d)
		if c[first>>shift&(buckets-1)] == uint32(n) {
			continue // every key has this digit: the pass moves nothing
		}
		var next uint32
		for b, m := range c {
			c[b], next = next, next+m
		}
		for _, p := range src {
			b := keys[p] >> shift & (buckets - 1)
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pos[0] {
		copy(pos, src)
	}
}

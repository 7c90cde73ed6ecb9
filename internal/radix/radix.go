// Package radix orders the bulk loaders' points: a stable
// least-significant-digit radix sort of uint64 keys, each carrying an
// int32 position. STR sorts the coordinates' order-preserving images
// (Float64Key) and the Hilbert packer and shard split sort curve values.
// A stable sort on the key alone yields exactly the order a stable
// comparison sort on that key yields.
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

// Scratch is the buffer Sort moves keys and positions through. The zero
// value is ready to use; Sort grows it to the longest input it has
// seen, so one Scratch serves a run of sorts with one allocation.
type Scratch struct {
	keys []uint64
	pos  []int32
}

// Sort sorts keys ascending and permutes pos with them: pos[i] travels
// with keys[i], and equal keys keep their input order. It makes one
// counting pass, then one scatter pass per 8-bit digit, least
// significant first, skipping a digit on which every key agrees. s is
// the scratch; nil allocates one for this call. pos must be as long as
// keys.
func Sort(keys []uint64, pos []int32, s *Scratch) {
	n := len(keys)
	if len(pos) != n {
		panic("radix: keys and positions differ in length")
	}
	if n < 2 {
		return
	}
	var counts [8][256]int
	for _, k := range keys {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	if s == nil {
		s = new(Scratch)
	}
	if len(s.keys) < n {
		s.keys, s.pos = make([]uint64, n), make([]int32, n)
	}
	srcK, srcP := keys, pos
	dstK, dstP := s.keys[:n], s.pos[:n]
	for d := range counts {
		c := &counts[d]
		shift := 8 * uint(d)
		if c[byte(srcK[0]>>shift)] == n {
			continue // every key has this digit: the pass moves nothing
		}
		next := 0
		for b, m := range c {
			c[b], next = next, next+m
		}
		for i, k := range srcK {
			b := byte(k >> shift)
			dstK[c[b]], dstP[c[b]] = k, srcP[i]
			c[b]++
		}
		srcK, dstK = dstK, srcK
		srcP, dstP = dstP, srcP
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(pos, srcP)
	}
}

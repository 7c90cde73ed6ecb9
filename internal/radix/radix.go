// Package radix orders the bulk loaders' points and MQM's query points.
// It works on packed words: a 32-bit key image in the high half of a
// uint64 and the point's position in the low half, so every pass reads
// and writes one sequential column and no key is looked up by position.
//
// An Order orders words by image, then by a caller's comparison of the
// full keys where images tie, then by position. Sort sorts words by an
// Order; Cut splits them into groups at given ranks of one, sorting only
// the few words near a group boundary. An image must keep the order of
// the keys it stands for (a lesser key never has a greater image): a
// Scale maps a run of coordinates onto such images, and a key of 32 bits
// or fewer is its own image.
package radix

import (
	"math"
	"math/bits"
	"slices"
)

// Word packs a key image and a position into one sortable word.
func Word(image uint64, pos int) uint64 { return image<<32 | uint64(uint32(pos)) }

// Pos returns the position a word carries.
func Pos(w uint64) int { return int(uint32(w)) }

// A Scale maps float64 values within [lo, hi] linearly onto 32-bit
// images that keep their order: lo's image is 0 and hi's is 2^32-1.
// Values closer than the image's step tie, and -0 ties with +0, as the
// two do under <; Sort's comparison settles ties. hi-lo must be finite.
type Scale struct {
	lo, f float64
}

// NewScale returns the Scale of values within [lo, hi].
func NewScale(lo, hi float64) Scale {
	s := Scale{lo: lo}
	if hi > lo {
		// A range too narrow for a finite factor (hi-lo subnormal) maps
		// with the largest finite one: the images tie, but in order.
		s.f = min(math.MaxUint32/(hi-lo), math.MaxFloat64)
	}
	return s
}

// Image returns the image of v, which must lie within the scale's range.
// Rounding can carry hi's product a hair past 2^32-1, never to 2^32, so
// the conversion's truncation alone keeps it within 32 bits; the clamp
// is a guard.
func (s Scale) Image(v float64) uint64 {
	return min(uint64((v-s.lo)*s.f), math.MaxUint32)
}

// Sort passes read an image in digits of digitBits bits, least
// significant first: four passes cover 32 bits, and one pass's counts
// fit in 1 KiB, so a short input pays little for the passes' fixed
// work. Sort reads only the top digits it needs to leave about one tie
// per 2^spare words (see Sort). Inputs of at most small words are
// sorted by comparison.
const (
	digitBits = 8
	buckets   = 1 << digitBits
	digits    = 32 / digitBits
	spare     = 4
	small     = 64
)

// An Order orders words: by image, then, where images tie, by a
// comparison of the full keys their positions stand for, then by a
// second key of the positions whose full keys are equal, then by
// position (positions must be distinct). The zero Order compares the
// images alone: they are the full keys.
type Order struct {
	cmp     func(p, q int) int    // the full keys; nil: the images are
	tie     func(p int) uint32    // the second key; nil for none
	compare func(a, b uint64) int // the whole order on words
}

// ByKey returns the Order of words whose images stand for the keys cmp
// compares by position (nil: the images are the full keys), with tie
// (nil for none) as the second key. cmp must agree with the images (a
// lesser image never stands for a greater key); it is called only on
// positions whose images are equal, and tie only on positions whose
// full keys are equal. Build an Order once and pass it to every Sort
// and Cut over the same keys: each call then allocates nothing for it.
func ByKey(cmp func(p, q int) int, tie func(p int) uint32) Order {
	o := Order{cmp: cmp, tie: tie}
	o.compare = func(a, b uint64) int {
		if ia, ib := a>>32, b>>32; ia != ib {
			if ia < ib {
				return -1
			}
			return 1
		}
		p, q := Pos(a), Pos(b)
		if cmp != nil {
			if c := cmp(p, q); c != 0 {
				return c
			}
		}
		if tie != nil {
			if tp, tq := tie(p), tie(q); tp != tq {
				if tp < tq {
					return -1
				}
				return 1
			}
		}
		return p - q
	}
	return o
}

// sortRun sorts run, words of one image, by the order, using scratch
// (at least as long) for a radix sort. A run whose full keys are all
// equal is sorted on its second key by rewriting the images with it, so
// tie runs once per word, and the run is radix-sorted, not compared.
func (o Order) sortRun(run, scratch []uint64) {
	if o.compare == nil {
		if !slices.IsSorted(run) {
			slices.Sort(run) // one image: position order
		}
		return
	}
	if slices.IsSortedFunc(run, o.compare) {
		return
	}
	if o.tie != nil && (o.cmp == nil || keysEqual(run, o.cmp)) {
		const low = 1<<32 - 1
		image := run[0] &^ low
		for i, w := range run {
			run[i] = uint64(o.tie(Pos(w)))<<32 | w&low
		}
		Sort(run, scratch, Order{})
		for i, w := range run {
			run[i] = image | w&low
		}
		return
	}
	slices.SortFunc(run, o.compare)
}

// keysEqual reports whether cmp finds the full keys of every word of
// run equal.
func keysEqual(run []uint64, cmp func(p, q int) int) bool {
	for _, w := range run[1:] {
		if cmp(Pos(run[0]), Pos(w)) != 0 {
			return false
		}
	}
	return true
}

// Sort orders words by o. scratch must hold at least len(words) words;
// Sort leaves its contents undefined.
//
// Sort is a least-significant-digit radix sort (one counting pass, then
// one scatter pass per digit on which the words differ) of the images'
// top bits: as many digits as cover log2(n)+spare bits, so uniformly
// spread images rarely tie on them. It keeps words that tie there in
// their input order; every run of such words is then sorted on the
// bits below, the same way, down to runs of one image, which are sorted
// by o if they are out of order.
func Sort(words, scratch []uint64, o Order) {
	sortBelow(words, scratch, o, 32)
}

// sortBelow sorts words, whose images agree from bit hi up, by o.
func sortBelow(words, scratch []uint64, o Order, hi uint) {
	n := len(words)
	if n <= small {
		slices.Sort(words)
		settle(words, 32, o, scratch[:n])
		return
	}
	passes := min((bits.Len(uint(n))+spare+digitBits-1)/digitBits, int(hi+digitBits-1)/digitBits)
	top := 32 + uint(max(0, int(hi)-passes*digitBits)) // the lowest word bit a pass reads
	var counts [digits][buckets]uint32
	for _, w := range words {
		k := w >> top
		counts[0][k&(buckets-1)]++
		counts[1][k>>digitBits&(buckets-1)]++
		if passes > 2 {
			counts[2][k>>(2*digitBits)&(buckets-1)]++
			counts[3][k>>(3*digitBits)&(buckets-1)]++
		}
	}
	src, dst := words, scratch[:n]
	first := words[0] >> top
	for d := range passes {
		c := &counts[d]
		if c[first>>(digitBits*uint(d))&(buckets-1)] == uint32(n) {
			continue // every word has this digit: the pass moves nothing
		}
		var next uint32
		for b, m := range c {
			c[b], next = next, next+m
		}
		shift := top + digitBits*uint(d)
		for _, w := range src {
			b := w >> shift & (buckets - 1)
			dst[c[b]] = w
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &words[0] {
		copy(words, src)
	}
	settle(words, top, o, scratch)
}

// settle sorts every run of words that agree from bit shift up in words,
// already ordered by those bits, by o, each through its own span of
// scratch, which must be as long as words: a run of one image with
// sortRun, any other run on the image bits below shift.
func settle(words []uint64, shift uint, o Order, scratch []uint64) {
	for i := 1; i < len(words); i++ {
		key := words[i-1] >> shift
		if words[i]>>shift != key {
			continue
		}
		lo := i - 1
		for i+1 < len(words) && words[i+1]>>shift == key {
			i++
		}
		run, spare := words[lo:i+1], scratch[lo:i+1:i+1]
		if shift > 32 {
			sortBelow(run, spare, o, shift-32)
		} else {
			o.sortRun(run, spare)
		}
	}
}

// cutBits is the width of the image prefix Cut histograms.
const (
	cutBits    = 11
	cutBuckets = 1 << cutBits
)

// Cut partitions words into len(ends) groups by rank in o: group g, the
// words of ranks ends[g-1] up to ends[g] (from rank 0 for group 0), is
// written to out[ends[g-1]:ends[g]]. ends must ascend and end at
// len(words); out must hold len(words) words and must not overlap
// words, which Cut leaves in an undefined state.
//
// Cut histograms the top cutBits bits of the images. The words of a
// bucket that no group boundary falls inside go to its group whole, in
// their input order. The words of the buckets a boundary splits are
// moved to the front of words as they are met, sorted there, and dealt
// to the groups of their ranks, after each group's whole buckets. When
// those are more than half the words, Cut sorts all of them instead,
// through out, and copies them over.
func Cut(words, out []uint64, ends []int, o Order) {
	const shift = 64 - cutBits
	cuts := ends[:len(ends)-1] // the first rank of every group but the first
	var count [cutBuckets]int32
	for _, w := range words {
		count[w>>shift]++
	}
	// group[b] is the group of bucket b's first rank (the number of cuts
	// at or below it), or -1 when a cut falls strictly inside the bucket;
	// start[b] is that rank.
	var group, start [cutBuckets]int32
	c, first, split := 0, int32(0), 0
	for b, m := range count {
		for c < len(cuts) && cuts[c] <= int(first) {
			c++
		}
		group[b], start[b] = int32(c), first
		if c < len(cuts) && cuts[c] < int(first+m) {
			group[b] = -1
			split += int(m)
		}
		first += m
	}
	if 2*split > len(words) {
		Sort(words, out, o)
		copy(out, words)
		return
	}
	next := make([]int, len(ends))
	for g := 1; g < len(ends); g++ {
		next[g] = ends[g-1]
	}
	split = 0
	for _, w := range words {
		if g := group[w>>shift]; g >= 0 {
			out[next[g]] = w
			next[g]++
		} else {
			words[split] = w
			split++
		}
	}
	// The split buckets' words, sorted, come bucket by bucket in rank
	// order from each bucket's first rank.
	Sort(words[:split], words[split:2*split], o)
	b, r := uint64(cutBuckets), 0
	c = 0
	for _, w := range words[:split] {
		if w>>shift != b {
			b = w >> shift
			r = int(start[b])
		}
		for c < len(cuts) && cuts[c] <= r {
			c++
		}
		out[next[c]] = w
		next[c]++
		r++
	}
}

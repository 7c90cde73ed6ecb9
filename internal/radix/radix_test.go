package radix

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// referenceSort is the specification of Sort: a stable comparison sort
// of the positions 0 to len(keys)-1 by their keys, so positions whose
// keys tie stay in input order.
func referenceSort(keys []uint64) []int {
	want := make([]int, len(keys))
	for i := range want {
		want[i] = i
	}
	slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	return want
}

// words returns the words of positions pos over the 64-bit key column
// keys: each key's image is its offset from the least key pos names,
// shifted so the greatest offset fills 32 bits. Keys that spread over
// more than 32 bits tie on their images, so Sort's fix-up comparison
// (byKey) decides their order.
func words(keys []uint64, pos []int) []uint64 {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, p := range pos {
		lo, hi = min(lo, keys[p]), max(hi, keys[p])
	}
	right, left := 0, 0
	if w := bits.Len64(hi - lo); w > 32 {
		right = w - 32
	} else {
		left = 32 - w
	}
	ws := make([]uint64, len(pos))
	for i, p := range pos {
		ws[i] = Word((keys[p]-lo)>>right<<left, p)
	}
	return ws
}

// byKey orders words by the full keys their positions name.
func byKey(keys []uint64) Order {
	return ByKey(func(p, q int) int { return cmp.Compare(keys[p], keys[q]) }, nil)
}

// byHalves orders words by the same keys as byKey, split in two: the
// high halves compared, the low halves as the second key.
func byHalves(keys []uint64) Order {
	return ByKey(func(p, q int) int { return cmp.Compare(keys[p]>>32, keys[q]>>32) },
		func(p int) uint32 { return uint32(keys[p]) })
}

// positions returns the positions words carry, in order.
func positions(ws []uint64) []int {
	pos := make([]int, len(ws))
	for i, w := range ws {
		pos[i] = Pos(w)
	}
	return pos
}

// checkSort sorts the words of pos over keys by o through scratch and
// fails unless they come out as want, rank for rank.
func checkSort(t *testing.T, name string, keys []uint64, pos, want []int, scratch []uint64, o Order) {
	t.Helper()
	ws := words(keys, pos)
	Sort(ws, scratch, o)
	got := positions(ws)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("%s: rank %d of %d is position %d (key %#x), want %d (key %#x)",
				name, r, len(want), got[r], keys[got[r]], want[r], keys[want[r]])
		}
	}
}

// checkCut cuts the words of positions 0 to n-1 by o into groups of
// near-equal size and fails unless each group holds the words of its
// ranks in Sort's order (want).
func checkCut(t *testing.T, keys []uint64, want []int, groups int, o Order) {
	t.Helper()
	n := len(keys)
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	ends := make([]int, groups)
	for g := range ends {
		ends[g] = n * (g + 1) / groups
	}
	out := make([]uint64, n)
	Cut(words(keys, pos), out, ends, o)
	lo := 0
	for g, hi := range ends {
		got, group := positions(out[lo:hi]), slices.Clone(want[lo:hi])
		slices.Sort(got)
		slices.Sort(group)
		if !slices.Equal(got, group) {
			t.Fatalf("cut into %d: group %d holds positions %v, want %v", groups, g, got, group)
		}
		lo = hi
	}
}

// FuzzRadixSort checks Sort against a stable comparison sort on 64-bit
// keys read from the fuzz bytes, eight little-endian bytes each (a short
// tail zero-padded) and ANDed with mask, so a sparse mask makes ties and
// digits every key shares, and keys spread over more than 32 bits tie on
// their images and go through the fix-up. The words are sorted in input
// order and backwards (Sort breaks ties by position, not by the order it
// is handed them); the second half is sorted first through the same
// scratch, as an STR slab is (its positions index the whole column).
// The same keys compared as high halves with the low halves as second
// key must sort the same way. Cut must place the same ranks in the same
// groups under both orders. The seed corpus lives in
// testdata/fuzz/FuzzRadixSort and replays in every plain go test run.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		n := (len(data) + 7) / 8
		keys := make([]uint64, n)
		pos := make([]int, n)
		for i := range keys {
			var chunk [8]byte
			copy(chunk[:], data[8*i:])
			keys[i] = binary.LittleEndian.Uint64(chunk[:]) & mask
			pos[i] = i
		}
		want := referenceSort(keys)
		scratch := make([]uint64, n)
		full, halves := byKey(keys), byHalves(keys)
		half := slices.Clone(pos[n/2:])
		slices.SortStableFunc(half, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
		checkSort(t, "second half", keys, pos[n/2:], half, scratch, full)
		checkSort(t, "all", keys, pos, want, scratch, full)
		checkSort(t, "halves", keys, pos, want, scratch, halves)
		slices.Reverse(pos)
		checkSort(t, "backwards", keys, pos, want, scratch, full)
		for groups := 1; groups <= 5; groups++ {
			checkCut(t, keys, want, groups, full)
			checkCut(t, keys, want, groups, halves)
		}
	})
}

// TestScaleImageOrder checks that a Scale keeps the order of the values
// it maps: a lesser value never has a greater image, and -0 and +0 share
// one. The range's ends map to 0 and 2^32-1, except that a range too
// narrow for a finite factor (the subnormal one) only keeps the order.
func TestScaleImageOrder(t *testing.T) {
	vals := []float64{
		-1e300, -2, -1, -0.5,
		-math.SmallestNonzeroFloat64 * 3, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64 * 3,
		0x1p-1022, // smallest normal, just above the subnormals
		0.5, 1, 2, 1e300,
	}
	for _, r := range [][2]int{{0, len(vals) - 1}, {5, 9}, {6, 7}, {11, 13}} {
		lo, hi := vals[r[0]], vals[r[1]]
		s := NewScale(lo, hi)
		finite := !math.IsInf(math.MaxUint32/(hi-lo), 0)
		if s.Image(lo) != 0 || (finite && s.Image(hi) != math.MaxUint32) {
			t.Errorf("scale [%v, %v]: ends map to %d and %d", lo, hi, s.Image(lo), s.Image(hi))
		}
		for _, a := range vals[r[0] : r[1]+1] {
			for _, b := range vals[r[0] : r[1]+1] {
				ia, ib := s.Image(a), s.Image(b)
				if a < b && ia > ib || a == b && ia != ib || ia > math.MaxUint32 {
					t.Errorf("scale [%v, %v]: image(%v) = %d, image(%v) = %d", lo, hi, a, ia, b, ib)
				}
			}
		}
	}
}

func TestSortFloat64Keys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{
		math.Copysign(0, -1), 0, -1, 1, -0.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64 / 2, -math.MaxFloat64 / 2,
	}
	for _, n := range []int{0, 1, 2, 255, 256, 257} {
		vals := make([]float64, n)
		for i := range vals {
			switch i % 3 {
			case 0:
				vals[i] = special[rng.Intn(len(special))]
			case 1:
				vals[i] = math.Floor(rng.NormFloat64() * 4) // ties across signs
			default:
				vals[i] = rng.NormFloat64() * 1e6
			}
		}
		ws := make([]uint64, n)
		if n > 0 {
			s := NewScale(slices.Min(vals), slices.Max(vals))
			for i, v := range vals {
				ws[i] = Word(s.Image(v), i)
			}
		}
		Sort(ws, make([]uint64, n), ByKey(func(p, q int) int { return cmp.Compare(vals[p], vals[q]) }, nil))
		// The positions must come out in the order a stable sort under
		// < puts the values in.
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(vals[a], vals[b]) })
		if got := positions(ws); !slices.Equal(got, want) {
			t.Errorf("n=%d: positions %v, want %v", n, got, want)
		}
	}
}

// BenchmarkSort sorts the words of 194,971 uniform coordinates on
// [0, 10000], the size of TS, by their Scale images, through one reused
// scratch column.
func BenchmarkSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 194_971)
	for i := range vals {
		vals[i] = rng.Float64() * 10000
	}
	s := NewScale(slices.Min(vals), slices.Max(vals))
	in := make([]uint64, len(vals))
	for i, v := range vals {
		in[i] = Word(s.Image(v), i)
	}
	ws := make([]uint64, len(in))
	scratch := make([]uint64, len(in))
	byVal := ByKey(func(p, q int) int { return cmp.Compare(vals[p], vals[q]) }, nil)
	for b.Loop() {
		copy(ws, in)
		Sort(ws, scratch, byVal)
	}
}

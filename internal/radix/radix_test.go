package radix

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceSort is the specification of Sort: a stable comparison sort
// of the positions by their keys.
func referenceSort(keys []uint64, pos []int32) []int32 {
	want := slices.Clone(pos)
	slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return want
}

// checkSort sorts a copy of pos by keys with s and compares the result
// with referenceSort, rank for rank. keys must come back unchanged.
func checkSort(t *testing.T, name string, keys []uint64, pos []int32, s *Scratch) {
	t.Helper()
	want := referenceSort(keys, pos)
	before := slices.Clone(keys)
	got := slices.Clone(pos)
	Sort(keys, got, s)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("%s: rank %d of %d is position %d (key %#x), want %d (key %#x)",
				name, r, len(want), got[r], keys[got[r]], want[r], keys[want[r]])
		}
	}
	if !slices.Equal(keys, before) {
		t.Fatalf("%s: Sort wrote to the key column", name)
	}
}

// FuzzRadixSort checks Sort against a stable comparison sort on keys
// read from the fuzz bytes, eight little-endian bytes each (a short tail
// zero-padded) and ANDed with mask, so a sparse mask makes ties and
// digits every key shares. The positions run backwards through the key
// column, so a tie out of input order shows. The second half is sorted
// first through the same Scratch, as an STR slab is (its positions index
// the whole column), which the full sort then grows and reuses. The
// seed corpus lives in testdata/fuzz/FuzzRadixSort and replays in every
// plain go test run.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		n := (len(data) + 7) / 8
		keys := make([]uint64, n)
		pos := make([]int32, n)
		for i := range keys {
			var chunk [8]byte
			copy(chunk[:], data[8*i:])
			keys[i] = binary.LittleEndian.Uint64(chunk[:]) & mask
			pos[i] = int32(n - 1 - i)
		}
		var s Scratch
		checkSort(t, "second half", keys, pos[n/2:], &s)
		checkSort(t, "all", keys, pos, &s)
	})
}

func TestFloat64KeyOrder(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -2, -1, -0.5,
		-math.SmallestNonzeroFloat64 * 3, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64 * 3,
		0x1p-1022, // smallest normal, just above the subnormals
		0.5, 1, 2, 1e300, math.MaxFloat64, math.Inf(1),
	}
	for _, a := range vals {
		for _, b := range vals {
			want := cmp.Compare(a, b) // -0 and +0 compare equal
			if got := cmp.Compare(Float64Key(a), Float64Key(b)); got != want {
				t.Errorf("key(%v) vs key(%v): %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestSortFloat64Keys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{
		math.Copysign(0, -1), 0, -1, 1, -0.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, n := range []int{0, 1, 2, 255, 256, 257} {
		vals := make([]float64, n)
		keys := make([]uint64, n)
		pos := make([]int32, n)
		for i := range vals {
			switch i % 3 {
			case 0:
				vals[i] = special[rng.Intn(len(special))]
			case 1:
				vals[i] = math.Floor(rng.NormFloat64() * 4) // ties across signs
			default:
				vals[i] = rng.NormFloat64() * 1e6
			}
			keys[i], pos[i] = Float64Key(vals[i]), int32(i)
		}
		Sort(keys, pos, nil)
		// The positions must come out in the order a stable sort under
		// < puts the values in.
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) })
		if !slices.Equal(pos, want) {
			t.Errorf("n=%d: positions %v, want %v", n, pos, want)
		}
	}
}

func TestSortPositionOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sort accepted position 2 of a 2-key column")
		}
	}()
	Sort([]uint64{2, 1}, []int32{0, 2}, nil)
}

// BenchmarkSort sorts the positions of 194,971 uniform coordinates on
// [0, 10000], the size of TS, by their images, through one reused
// Scratch.
func BenchmarkSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 194_971)
	for i := range keys {
		keys[i] = Float64Key(rng.Float64() * 10000)
	}
	pos := make([]int32, len(keys))
	var s Scratch
	for b.Loop() {
		for i := range pos {
			pos[i] = int32(i)
		}
		Sort(keys, pos, &s)
	}
}

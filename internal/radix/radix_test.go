package radix

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pair is one key with the position that must travel with it.
type pair struct {
	key uint64
	pos int32
}

// referenceSort is the specification of Sort: a stable comparison sort
// of the pairs by key.
func referenceSort(keys []uint64, pos []int32) []pair {
	ps := make([]pair, len(keys))
	for i := range keys {
		ps[i] = pair{keys[i], pos[i]}
	}
	slices.SortStableFunc(ps, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	return ps
}

// checkSort sorts copies of keys and pos with s and compares the result
// with referenceSort, pair for pair.
func checkSort(t *testing.T, name string, keys []uint64, pos []int32, s *Scratch) {
	t.Helper()
	want := referenceSort(keys, pos)
	gotK, gotP := slices.Clone(keys), slices.Clone(pos)
	Sort(gotK, gotP, s)
	for r := range want {
		if gotK[r] != want[r].key || gotP[r] != want[r].pos {
			t.Fatalf("%s: rank %d of %d is (%#x, %d), want (%#x, %d)",
				name, r, len(want), gotK[r], gotP[r], want[r].key, want[r].pos)
		}
	}
}

// FuzzRadixSort checks Sort against a stable comparison sort on keys
// read from the fuzz bytes, eight little-endian bytes each (a short tail
// zero-padded) and ANDed with mask, so a sparse mask makes ties and
// digits every key shares. Positions are distinct, so a tie out of
// input order shows. The first half is sorted first through the same
// Scratch, which the full sort then grows and reuses. The seed corpus
// lives in testdata/fuzz/FuzzRadixSort and replays in every plain go
// test run.
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
			pos[i] = int32(n/2 - i)
		}
		var s Scratch
		checkSort(t, "first half", keys[:n/2], pos[:n/2], &s)
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

func TestSortMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sort accepted 2 keys with 1 position")
		}
	}()
	Sort([]uint64{2, 1}, []int32{0}, nil)
}

// BenchmarkSort sorts the images of 194,971 uniform coordinates on
// [0, 10000], the size of TS, through one reused Scratch.
func BenchmarkSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]uint64, 194_971)
	for i := range src {
		src[i] = Float64Key(rng.Float64() * 10000)
	}
	keys, pos := make([]uint64, len(src)), make([]int32, len(src))
	var s Scratch
	for b.Loop() {
		copy(keys, src)
		for i := range pos {
			pos[i] = int32(i)
		}
		Sort(keys, pos, &s)
	}
}

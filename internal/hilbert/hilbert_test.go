package hilbert

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gnn/internal/radix"
)

func TestEncodeOrder1(t *testing.T) {
	// The order-1 curve visits (0,0) (0,1) (1,1) (1,0).
	want := map[[2]uint32]uint64{
		{0, 0}: 0, {0, 1}: 1, {1, 1}: 2, {1, 0}: 3,
	}
	for cell, d := range want {
		if got := Encode(1, cell[0], cell[1]); got != d {
			t.Errorf("Encode(1,%d,%d) = %d, want %d", cell[0], cell[1], got, d)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, order := range []uint{1, 2, 3, 5, 8} {
		n := uint32(1) << order
		seen := make(map[uint64]bool, n*n)
		for x := uint32(0); x < n; x++ {
			for y := uint32(0); y < n; y++ {
				d := Encode(order, x, y)
				if d >= uint64(n)*uint64(n) {
					t.Fatalf("order %d: value %d out of range", order, d)
				}
				if seen[d] {
					t.Fatalf("order %d: duplicate value %d", order, d)
				}
				seen[d] = true
				gx, gy := decode(order, d)
				if gx != x || gy != y {
					t.Fatalf("order %d: decode(Encode(%d,%d)) = (%d,%d)", order, x, y, gx, gy)
				}
			}
		}
	}
}

func TestEncodeClampsOutOfRange(t *testing.T) {
	if got, want := Encode(2, 100, 100), Encode(2, 3, 3); got != want {
		t.Errorf("clamped Encode = %d, want %d", got, want)
	}
}

func TestCurveContinuity(t *testing.T) {
	// Consecutive curve positions must map to adjacent grid cells
	// (Manhattan distance exactly 1) — the locality property MQM relies on.
	const order = 6
	n := uint64(1) << order
	px, py := decode(order, 0)
	for d := uint64(1); d < n*n; d++ {
		x, y := decode(order, d)
		dx := math.Abs(float64(x) - float64(px))
		dy := math.Abs(float64(y) - float64(py))
		if dx+dy != 1 {
			t.Fatalf("discontinuity at d=%d: (%d,%d) -> (%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestQuickRoundTripLargeOrder(t *testing.T) {
	for _, order := range []uint{16, 31, 32} {
		mask := uint32(1)<<order - 1 // all ones at order 32
		f := func(x, y uint32) bool {
			x &= mask
			y &= mask
			gx, gy := decode(order, Encode(order, x, y))
			return gx == x && gy == y
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("order %d: %v", order, err)
		}
	}
}

// decode is the inverse of Encode, the round-trip tests' helper: it maps
// a curve distance d back to the grid cell (x, y) it occupies on a curve
// of the given order, 1 to 32, applying the rotate/flip rule level by
// level.
func decode(order uint, d uint64) (x, y uint32) {
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

// referenceEncode is the specification of Encode: the classic loop that
// reads one level per step and rotates the remaining bits with rotate.
func referenceEncode(order uint, x, y uint32) uint64 {
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

func TestEncodeMatchesReference(t *testing.T) {
	// Up to order 8, every cell of the grid and of a margin beyond it,
	// which Encode clamps.
	for order := uint(1); order <= 8; order++ {
		n := uint32(1) << order
		for x := uint32(0); x < n+3; x++ {
			for y := uint32(0); y < n+3; y++ {
				if got, want := Encode(order, x, y), referenceEncode(order, x, y); got != want {
					t.Fatalf("Encode(%d, %d, %d) = %d, want %d", order, x, y, got, want)
				}
			}
		}
	}
	// Above it, seeded random cells: half inside the grid, half anywhere
	// in uint32 (clamped below order 32), plus the grid's corners.
	rng := rand.New(rand.NewSource(17))
	for order := uint(9); order <= 32; order++ {
		mask := uint32(1)<<order - 1
		cells := [][2]uint32{{0, 0}, {0, mask}, {mask, 0}, {mask, mask}, {math.MaxUint32, 0}}
		for i := 0; i < 4000; i++ {
			x, y := rng.Uint32(), rng.Uint32()
			if i%2 == 0 {
				x, y = x&mask, y&mask
			}
			cells = append(cells, [2]uint32{x, y})
		}
		for _, c := range cells {
			if got, want := Encode(order, c[0], c[1]), referenceEncode(order, c[0], c[1]); got != want {
				t.Fatalf("Encode(%d, %d, %d) = %d, want %d", order, c[0], c[1], got, want)
			}
		}
	}
}

func TestMapperValue(t *testing.T) {
	m := NewMapper(8, 0, 0, 100, 100)
	// Corners of the box map to distinct grid corners.
	vals := map[uint64]bool{}
	for _, c := range [][2]float64{{0, 0}, {0, 100}, {100, 0}, {100, 100}} {
		vals[m.Value(c[0], c[1])] = true
	}
	if len(vals) != 4 {
		t.Errorf("corner collisions: %v", vals)
	}
	// Below-range coordinates clamp to cell 0 rather than wrapping.
	if got, want := m.Value(-50, -50), m.Value(0, 0); got != want {
		t.Errorf("negative clamp = %d, want %d", got, want)
	}
}

func TestMapperDegenerateExtent(t *testing.T) {
	m := NewMapper(8, 5, 5, 5, 5) // all data at one point
	if got := m.Value(5, 5); got != Encode(8, 0, 0) {
		t.Errorf("degenerate mapper Value = %d", got)
	}
}

// TestWordsMatchValue checks Words against Value, point for point, on
// every curve order it accepts, with points inside the mapper's box,
// beyond it on every side (which Value clamps) and on its edges: each
// word's image is the point's 32-bit value with its low half cleared,
// and Order sorts the words as the values sort, ties by index.
func TestWordsMatchValue(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for order := uint(1); order <= 16; order++ {
		m := NewMapper(order, -5, 10, 95, 60)
		xs, ys := make([]float64, 500), make([]float64, 500)
		for i := range xs {
			xs[i], ys[i] = rng.Float64()*140-25, rng.Float64()*80
		}
		xs[0], ys[0], xs[1], ys[1] = -5, 10, 95, 60
		words := make([]uint64, len(xs))
		m.Words(xs, ys, words)
		for i, w := range words {
			if want := m.Value(xs[i], ys[i])&^0xffff<<32 | uint64(i); w != want {
				t.Fatalf("order %d: word of (%v, %v) is %#x, want %#x", order, xs[i], ys[i], w, want)
			}
		}
		radix.Sort(words, make([]uint64, len(words)), m.Order(xs, ys))
		got := make([]int32, len(words))
		for r, w := range words {
			got[r] = int32(radix.Pos(w))
		}
		at := func(i int) (float64, float64) { return xs[i], ys[i] }
		if want := referencePerm(len(xs), m, at); !slices.Equal(got, want) {
			t.Fatalf("order %d: Order sorts the words as %v, want %v", order, got, want)
		}
	}
}

// referencePerm is the specification of Perm: a stable sort of the
// indices by Hilbert value.
func referencePerm(n int, m *Mapper, at func(i int) (x, y float64)) []int32 {
	keys := make([]uint64, n)
	idx := make([]int32, n)
	for i := range idx {
		x, y := at(i)
		keys[i] = m.Value(x, y)
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return idx
}

func TestPermMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name  string
		order uint
		n     int
		span  float64
	}{
		{"order2-crowded", 2, 3000, 100}, // 16 cells: ~190 points share each value
		{"order4", 4, 2000, 100},
		{"default-grid", DefaultOrder, 5000, 8}, // integer coordinates: exact duplicates
		{"default", DefaultOrder, 5000, 1e4},
		{"tiny", 3, 1, 1},
		{"empty", 3, 0, 1},
	} {
		xs, ys := make([]float64, tc.n), make([]float64, tc.n)
		for i := range xs {
			xs[i], ys[i] = rng.Float64()*tc.span, rng.Float64()*tc.span
			if tc.span < 10 {
				xs[i], ys[i] = math.Floor(xs[i]), math.Floor(ys[i])
			}
		}
		m := NewMapper(tc.order, 0, 0, tc.span, tc.span)
		at := func(i int) (float64, float64) { return xs[i], ys[i] }
		if got, want := Perm(tc.n, m, at), referencePerm(tc.n, m, at); !slices.Equal(got, want) {
			t.Errorf("%s: Perm differs from the stable sort", tc.name)
		}
	}
}

func TestHilbertLocalityBeatsRandom(t *testing.T) {
	// Average distance between consecutive Hilbert-sorted points must be far
	// below that of a random order — the reason MQM sorts Q (§3.1).
	rng := rand.New(rand.NewSource(11))
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = rng.Float64()*1000, rng.Float64()*1000
	}
	hop := func() float64 {
		var s float64
		for i := 1; i < n; i++ {
			s += math.Hypot(xs[i]-xs[i-1], ys[i]-ys[i-1])
		}
		return s / float64(n-1)
	}
	randomHop := hop()
	m := NewMapper(DefaultOrder, 0, 0, 1000, 1000)
	perm := Perm(n, m, func(i int) (float64, float64) { return xs[i], ys[i] })
	xs, ys = gather(xs, perm), gather(ys, perm)
	sortedHop := hop()
	if sortedHop > randomHop/3 {
		t.Fatalf("Hilbert sort hop %.1f not ≪ random hop %.1f", sortedHop, randomHop)
	}
}

var sinkValue uint64

func BenchmarkEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkValue += Encode(16, uint32(i)&0xffff, uint32(i>>8)&0xffff)
	}
}

// gather returns vs in the order perm gives: its r-th value is
// vs[perm[r]].
func gather(vs []float64, perm []int32) []float64 {
	out := make([]float64, len(vs))
	for r, i := range perm {
		out[r] = vs[i]
	}
	return out
}

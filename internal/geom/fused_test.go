package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The fused SoA kernels promise bit-identical output to their scalar
// counterparts (that contract is what keeps packed and dynamic traversals
// returning identical results and node-access counts), so every comparison
// here is exact equality, not a tolerance.

type soaFixture struct {
	n      int
	pc     [][]float64 // point coords, pc[axis][slot]
	lo, hi [][]float64 // rect corners per axis
	pts    []Point     // AoS mirror of pc
	rects  []Rect      // AoS mirror of lo/hi
}

func newSoAFixture(rng *rand.Rand, n, dim int) *soaFixture {
	f := &soaFixture{
		n:  n,
		pc: make([][]float64, dim), lo: make([][]float64, dim), hi: make([][]float64, dim),
	}
	for a := 0; a < dim; a++ {
		f.pc[a] = make([]float64, n)
		f.lo[a] = make([]float64, n)
		f.hi[a] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		p := make(Point, dim)
		lo := make(Point, dim)
		hi := make(Point, dim)
		for a := 0; a < dim; a++ {
			p[a] = rng.Float64() * 100
			x, y := rng.Float64()*100, rng.Float64()*100
			if x > y {
				x, y = y, x
			}
			lo[a], hi[a] = x, y
			f.pc[a][i] = p[a]
			f.lo[a][i] = x
			f.hi[a][i] = y
		}
		f.pts = append(f.pts, p)
		f.rects = append(f.rects, Rect{Lo: lo, Hi: hi})
	}
	return f
}

func fusedRandPoint(rng *rand.Rand, dim int) Point {
	p := make(Point, dim)
	for a := range p {
		p[a] = rng.Float64() * 100
	}
	return p
}

func fusedRandRect(rng *rand.Rand, dim int) Rect {
	return NewRect(fusedRandPoint(rng, dim), fusedRandPoint(rng, dim))
}

func checkExact(t *testing.T, kernel string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: slot %d = %.17g, scalar %.17g (fused kernels must be bit-identical)",
				kernel, i, got[i], want[i])
		}
	}
}

func TestFusedKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{2, 3, 5} {
		f := newSoAFixture(rng, 64, dim)
		q := fusedRandPoint(rng, dim)
		r := fusedRandRect(rng, dim)
		// Exercise a strict sub-range too: kernels index pc[a][s+i].
		for _, span := range [][2]int{{0, f.n}, {17, 53}} {
			s, e := span[0], span[1]
			got := make([]float64, e-s)
			want := make([]float64, e-s)

			MinDistSqPointsRect(f.pc, s, e, r, got)
			for i := range want {
				want[i] = MinDistSqPointRect(f.pts[s+i], r)
			}
			checkExact(t, "MinDistSqPointsRect", got, want)

			DistSqPointsPoint(f.pc, s, e, q, got)
			for i := range want {
				want[i] = DistSq(q, f.pts[s+i])
			}
			checkExact(t, "DistSqPointsPoint", got, want)

			MinDistSqRectsRect(f.lo, f.hi, s, e, r, got)
			for i := range want {
				want[i] = MinDistSqRectRect(f.rects[s+i], r)
			}
			checkExact(t, "MinDistSqRectsRect", got, want)

			MinDistSqRectsPoint(f.lo, f.hi, s, e, q, got)
			for i := range want {
				want[i] = MinDistSqPointRect(q, f.rects[s+i])
			}
			checkExact(t, "MinDistSqRectsPoint", got, want)

			for i := range got {
				got[i] = 1.5
				want[i] = 1.5
			}
			AccumWeightedMinDistRectsRect(f.lo, f.hi, s, e, 3.0, r, got)
			for i := range want {
				want[i] += 3.0 * MinDistRectRect(f.rects[s+i], r)
			}
			checkExact(t, "AccumWeightedMinDistRectsRect", got, want)

			src := make([]float64, e-s)
			for i := range src {
				src[i] = float64(i)
			}
			AddWeightedMinDistPointsRect(f.pc, s, e, 2.0, r, src, got)
			for i := range want {
				want[i] = src[i] + 2.0*math.Sqrt(MinDistSqPointRect(f.pts[s+i], r))
			}
			checkExact(t, "AddWeightedMinDistPointsRect", got, want)
		}
	}
}

package geom

import "math"

// This file holds the fused range kernels of the packed (SoA) R-tree
// layout: each kernel computes one distance bound for an entire node's
// entry range [s, e) in a single pass over flat per-axis coordinate
// arrays (coords[axis][slot]), writing the results into a caller-supplied
// buffer. Streaming over contiguous float64 slices replaces one scattered
// pointer chase per entry (Entry → Rect → Lo/Hi backing arrays) with
// hardware-prefetchable sequential loads, and the simple per-axis inner
// loops are amenable to auto-vectorization.
//
// Bit-exactness contract: every kernel performs, per element, exactly the
// same floating-point operations in exactly the same order as its scalar
// counterpart in geom.go (axis terms accumulate in ascending axis order,
// with identical expression shapes), so a packed traversal's keys equal
// the scalar helpers' bit for bit. The query kernels' aggregate family
// (internal/core/aggregate.go) also runs MinDistSqPointsRect and
// DistSqPointsPoint over the query group's columns, for heuristic 3 and
// the exact distance outside 2-D; its contract restates the order, and
// the golden node-access counts rest on it. Do not restructure the
// arithmetic (e.g. hoisting a Sqrt across a fold) without revisiting
// both.

// MinDistSqPointsRect writes dst[i] = MinDistSqPointRect(p_{s+i}, r) for
// the point slots [s, e) of the SoA array pc (pc[axis][slot]).
func MinDistSqPointsRect(pc [][]float64, s, e int, r Rect, dst []float64) {
	dst = dst[:e-s]
	for i := range dst {
		dst[i] = 0
	}
	for a := range pc {
		col := pc[a][s:e]
		lo, hi := r.Lo[a], r.Hi[a]
		for i, v := range col {
			var d float64
			switch {
			case v < lo:
				d = lo - v
			case v > hi:
				d = v - hi
			}
			dst[i] += d * d
		}
	}
}

// DistSqPointsPoint writes dst[i] = DistSq(q, p_{s+i}) for the point
// slots [s, e) of the SoA array pc.
func DistSqPointsPoint(pc [][]float64, s, e int, q Point, dst []float64) {
	dst = dst[:e-s]
	for i := range dst {
		dst[i] = 0
	}
	for a := range pc {
		col := pc[a][s:e]
		qa := q[a]
		for i, v := range col {
			d := qa - v
			dst[i] += d * d
		}
	}
}

// MinDistSqRectsRect writes dst[i] = MinDistSqRectRect(rect_{s+i}, q) for
// the rectangle slots [s, e) of the SoA arrays lo/hi (lo[axis][slot]).
func MinDistSqRectsRect(lo, hi [][]float64, s, e int, q Rect, dst []float64) {
	dst = dst[:e-s]
	for i := range dst {
		dst[i] = 0
	}
	for a := range lo {
		los, his := lo[a][s:e], hi[a][s:e]
		qlo, qhi := q.Lo[a], q.Hi[a]
		for i := range los {
			var d float64
			switch {
			case qhi < los[i]:
				d = los[i] - qhi
			case his[i] < qlo:
				d = qlo - his[i]
			}
			dst[i] += d * d
		}
	}
}

// MinDistSqRectsPoint writes dst[i] = MinDistSqPointRect(q, rect_{s+i})
// for the rectangle slots [s, e) of the SoA arrays lo/hi.
func MinDistSqRectsPoint(lo, hi [][]float64, s, e int, q Point, dst []float64) {
	dst = dst[:e-s]
	for i := range dst {
		dst[i] = 0
	}
	for a := range lo {
		los, his := lo[a][s:e], hi[a][s:e]
		qa := q[a]
		for i := range los {
			var d float64
			switch {
			case qa < los[i]:
				d = los[i] - qa
			case qa > his[i]:
				d = qa - his[i]
			}
			dst[i] += d * d
		}
	}
}

// AccumWeightedMinDistRectsRect adds w·MinDistRectRect(rect_{s+i}, m) to
// dst[i] for the rectangle slots [s, e) — one term of F-MBM's heuristic-5
// weighted mindist Σ_l n_l·mindist(N, M_l), applied to a whole entry range
// per query block.
func AccumWeightedMinDistRectsRect(lo, hi [][]float64, s, e int, w float64, m Rect, dst []float64) {
	dst = dst[:e-s]
	for i := range dst {
		var sum float64
		for a := range lo {
			var d float64
			switch {
			case m.Hi[a] < lo[a][s+i]:
				d = lo[a][s+i] - m.Hi[a]
			case hi[a][s+i] < m.Lo[a]:
				d = m.Lo[a] - hi[a][s+i]
			}
			sum += d * d
		}
		dst[i] += w * math.Sqrt(sum)
	}
}

// AddWeightedMinDistPointsRect writes dst[i] = src[i] +
// w·mindist(p_{s+i}, m) for the point slots [s, e) — one column
// step of F-MBM's heuristic-6 suffix-bound matrix, fused over a leaf's
// entry range per query block.
func AddWeightedMinDistPointsRect(pc [][]float64, s, e int, w float64, m Rect, src, dst []float64) {
	dst = dst[:e-s]
	for i := range dst {
		var sum float64
		for a := range pc {
			v := pc[a][s+i]
			var d float64
			switch {
			case v < m.Lo[a]:
				d = m.Lo[a] - v
			case v > m.Hi[a]:
				d = v - m.Hi[a]
			}
			sum += d * d
		}
		dst[i] = src[i] + w*math.Sqrt(sum)
	}
}

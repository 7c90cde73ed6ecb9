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
// group terms in query order, with identical expression shapes). Packed
// traversals therefore produce bit-identical distances and bounds to the
// scalar helpers — which serve the overlay's pending-tail scan and the
// per-rectangle bounds (heuristic 3, MEB) — so results are identical
// whichever source a point is scored from, and the golden node-access
// counts stay fixed. Do not restructure the arithmetic (e.g. hoisting a
// Sqrt across a fold or squaring weights) without revisiting that
// contract.

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

// The group kernels below carry a 2-D fast path: the slot's coordinates
// are hoisted into scalars before the group loop (the compiler cannot do
// this itself across the pc[a][s+i] double indexing, because dst may
// alias the coordinate arrays). The 2-D sum dx*dx + dy*dy is bit-identical
// to the scalar (0 + d0²) + d1² accumulation: squares are non-negative,
// so the leading 0 + x is exact.

// SumDistPointsGroup writes dst[i] = Σ_j w_j·|p_{s+i} q_j| for the point
// slots [s, e) — the fused SUM-aggregate distance of a whole entry range
// to the query group. ws == nil means unweighted, matching SumDist.
func SumDistPointsGroup(pc [][]float64, s, e int, qs []Point, ws []float64, dst []float64) {
	dim := len(pc)
	dst = dst[:e-s]
	if dim == 2 {
		xs, ys := pc[0][s:e], pc[1][s:e]
		for i := range dst {
			px, py := xs[i], ys[i]
			var acc float64
			for j, q := range qs {
				dx, dy := px-q[0], py-q[1]
				if ws == nil {
					acc += math.Sqrt(dx*dx + dy*dy)
				} else {
					acc += ws[j] * math.Sqrt(dx*dx+dy*dy)
				}
			}
			dst[i] = acc
		}
		return
	}
	for i := range dst {
		var acc float64
		for j, q := range qs {
			var dsq float64
			for a := 0; a < dim; a++ {
				d := pc[a][s+i] - q[a]
				dsq += d * d
			}
			if ws == nil {
				acc += math.Sqrt(dsq)
			} else {
				acc += ws[j] * math.Sqrt(dsq)
			}
		}
		dst[i] = acc
	}
}

// MaxDistSqPointsGroup writes dst[i] = MaxDistSqToGroup(p_{s+i}, qs) —
// the fused squared MAX-aggregate distance of a whole entry range.
func MaxDistSqPointsGroup(pc [][]float64, s, e int, qs []Point, dst []float64) {
	dim := len(pc)
	dst = dst[:e-s]
	if dim == 2 {
		xs, ys := pc[0][s:e], pc[1][s:e]
		for i := range dst {
			px, py := xs[i], ys[i]
			var m float64
			for _, q := range qs {
				dx, dy := px-q[0], py-q[1]
				if dsq := dx*dx + dy*dy; dsq > m {
					m = dsq
				}
			}
			dst[i] = m
		}
		return
	}
	for i := range dst {
		var m float64
		for _, q := range qs {
			var dsq float64
			for a := 0; a < dim; a++ {
				d := pc[a][s+i] - q[a]
				dsq += d * d
			}
			if dsq > m {
				m = dsq
			}
		}
		dst[i] = m
	}
}

// MinDistSqPointsGroup writes dst[i] = MinDistSqToGroup(p_{s+i}, qs) —
// the fused squared MIN-aggregate distance of a whole entry range.
func MinDistSqPointsGroup(pc [][]float64, s, e int, qs []Point, dst []float64) {
	dim := len(pc)
	dst = dst[:e-s]
	if dim == 2 {
		xs, ys := pc[0][s:e], pc[1][s:e]
		for i := range dst {
			px, py := xs[i], ys[i]
			m := math.Inf(1)
			for _, q := range qs {
				dx, dy := px-q[0], py-q[1]
				if dsq := dx*dx + dy*dy; dsq < m {
					m = dsq
				}
			}
			dst[i] = m
		}
		return
	}
	for i := range dst {
		m := math.Inf(1)
		for _, q := range qs {
			var dsq float64
			for a := 0; a < dim; a++ {
				d := pc[a][s+i] - q[a]
				dsq += d * d
			}
			if dsq < m {
				m = dsq
			}
		}
		dst[i] = m
	}
}

// MaxDistPointsGroupW writes dst[i] = max_j w_j·|p_{s+i} q_j| — the fused
// weighted MAX aggregate. The weight multiplies the distance (not its
// square), matching the scalar weighted fold in the query kernels.
func MaxDistPointsGroupW(pc [][]float64, s, e int, qs []Point, ws []float64, dst []float64) {
	dim := len(pc)
	dst = dst[:e-s]
	if dim == 2 {
		xs, ys := pc[0][s:e], pc[1][s:e]
		for i := range dst {
			px, py := xs[i], ys[i]
			var m float64
			for j, q := range qs {
				dx, dy := px-q[0], py-q[1]
				if d := ws[j] * math.Sqrt(dx*dx+dy*dy); d > m {
					m = d
				}
			}
			dst[i] = m
		}
		return
	}
	for i := range dst {
		var m float64
		for j, q := range qs {
			var dsq float64
			for a := 0; a < dim; a++ {
				d := pc[a][s+i] - q[a]
				dsq += d * d
			}
			if d := ws[j] * math.Sqrt(dsq); d > m {
				m = d
			}
		}
		dst[i] = m
	}
}

// MinDistPointsGroupW writes dst[i] = min_j w_j·|p_{s+i} q_j| — the fused
// weighted MIN aggregate.
func MinDistPointsGroupW(pc [][]float64, s, e int, qs []Point, ws []float64, dst []float64) {
	dim := len(pc)
	dst = dst[:e-s]
	if dim == 2 {
		xs, ys := pc[0][s:e], pc[1][s:e]
		for i := range dst {
			px, py := xs[i], ys[i]
			m := math.Inf(1)
			for j, q := range qs {
				dx, dy := px-q[0], py-q[1]
				if d := ws[j] * math.Sqrt(dx*dx+dy*dy); d < m {
					m = d
				}
			}
			dst[i] = m
		}
		return
	}
	for i := range dst {
		m := math.Inf(1)
		for j, q := range qs {
			var dsq float64
			for a := 0; a < dim; a++ {
				d := pc[a][s+i] - q[a]
				dsq += d * d
			}
			if d := ws[j] * math.Sqrt(dsq); d < m {
				m = d
			}
		}
		dst[i] = m
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
// w·MinDistPointRect(p_{s+i}, m) for the point slots [s, e) — one column
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

package core

import (
	"fmt"
	"sync"

	"gnn/internal/centroid"
	"gnn/internal/geom"
	"gnn/internal/pq"
	"gnn/internal/rtree"
)

// group is a query group prepared for the kernels: validated and laid
// out once with its MBR, centre and weights, and with the bounds only
// some kernels need solved once, on first use: MBM's enclosing ball and
// SPM's centroid. The sources of a query share one (Share), and read
// it only: each traversal writes its own term scratch (terms), MQM its
// own Hilbert-ordered copy. Its sq column is its derivations' scratch.
type group struct {
	soaGroup
	qs   []geom.Point // the members, copied: the caller's slice is not kept
	w    *weightCtx   // nil for an unweighted group
	mbr  geom.Rect
	cent geom.Point // centre of mbr: depth-first MBM's tie-break reference

	mebOnce, cenOnce sync.Once
	mebs             geom.MEBScratch
	meb              mebCtx
	cen              geom.Point // SPM's centroid q
	cenDist          float64    // dist_w(q, Q)
}

// prepare validates qs under opt — non-empty, of dimension dim (the
// first member's when dim < 0), weights that fit, k ≥ 1 — and lays it out
// in g, forgetting whatever g derived before.
func (g *group) prepare(qs []geom.Point, dim int, opt Options) error {
	if len(qs) == 0 {
		return ErrEmptyQuery
	}
	if opt.K < 1 {
		return ErrBadK
	}
	if dim < 0 {
		dim = len(qs[0])
	}
	for i, q := range qs {
		if len(q) != dim {
			return fmt.Errorf("core: query point %d has dimension %d, tree dimension %d", i, len(q), dim)
		}
	}
	w, err := newWeightCtx(opt.Weights, len(qs))
	if err != nil {
		return err
	}
	g.qs, g.w = append(g.qs[:0], qs...), w
	g.fill(qs)
	g.mbr = geom.BoundingRectInto(g.mbr, qs)
	g.cent = grow(g.cent, dim)
	for i := range g.cent {
		g.cent[i] = (g.mbr.Lo[i] + g.mbr.Hi[i]) / 2
	}
	g.mebOnce, g.cenOnce = sync.Once{}, sync.Once{}
	return nil
}

// preparedFrom reports whether g was prepared from exactly the members
// qs, in order, and the weights w, in dim dimensions (any when dim < 0).
func (g *group) preparedFrom(qs []geom.Point, w []float64, dim int) bool {
	if len(g.qs) == 0 || len(qs) != len(g.qs) || dim >= 0 && dim != len(g.cols) {
		return false
	}
	for i, q := range qs {
		if len(q) != len(g.qs[i]) || len(q) > 0 && &q[0] != &g.qs[i][0] {
			return false
		}
	}
	if g.w == nil {
		return w == nil
	}
	return len(w) == len(g.w.w) && &w[0] == &g.w.w[0]
}

// groupOf returns the group a kernel over t (nil for a scan) reads for
// qs: Options.Shared's when prepared from exactly qs and these weights,
// else own, prepared here. Options.Packed must be t's arena.
func (o Options) groupOf(own *group, t *rtree.Tree, qs []geom.Point) (*group, error) {
	dim := -1
	if t != nil {
		if !o.Packed.Valid(t) {
			return nil, ErrNoArena
		}
		dim = t.Dim()
	}
	if s := o.Shared; s != nil && s.grp.preparedFrom(qs, o.Weights, dim) {
		return &s.grp, nil
	}
	if err := own.prepare(qs, dim, o); err != nil {
		return nil, err
	}
	return own, nil
}

// terms returns the view of g a traversal runs the aggregate family on:
// g's columns, with the traversal's own term scratch sq grown to fit.
func (g *group) terms(sq []float64) soaGroup {
	return soaGroup{cols: g.cols, sq: grow(sq, len(g.qs))}
}

// mebFor returns the dedicated MAX path's bound for g (maxmeb.go),
// solving the enclosing ball on first use; nil unless opt.MEBEnabled.
func (g *group) mebFor(opt Options) *mebCtx {
	if !opt.MEBEnabled(len(g.qs)) {
		return nil
	}
	g.mebOnce.Do(func() { g.meb.init(&g.mebs, g.qs, g.w) })
	return &g.meb
}

// centroid returns SPM's centroid q of g by method m, and dist_w(q, Q),
// solving both on first use (every source of a query asks with one m).
// The solvers fail only on an empty group, which prepare rejects.
func (g *group) centroid(m CentroidMethod) (geom.Point, float64) {
	g.cenOnce.Do(func() {
		switch m {
		case Weiszfeld:
			g.cen, _, _ = centroid.Weiszfeld(g.qs, centroid.Options{})
		case ArithmeticMean:
			g.cen, _ = centroid.Mean(g.qs)
		default:
			g.cen, _, _ = centroid.GradientDescent(g.qs, centroid.Options{})
		}
		g.cenDist = aggDistSoA(Sum, g.cen, &g.soaGroup, g.w)
	})
	return g.cen, g.cenDist
}

// release empties g for the pool, dropping buffers above pq.RetainCap.
func (g *group) release() {
	clear(g.qs[:cap(g.qs)])
	g.qs = pq.Trim(g.qs)
	g.w, g.cen = nil, nil
	g.soaGroup.release()
	g.mebs.Reset()
	g.meb = mebCtx{}
}

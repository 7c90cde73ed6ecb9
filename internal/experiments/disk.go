package experiments

import (
	"errors"
	"fmt"
	"time"

	"gnn/internal/core"
	"gnn/internal/dataset"
	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/stats"
	"gnn/internal/workload"
)

// diskSweep describes a §5.2 experiment: the query dataset (its whole
// cardinality is Q, so there is no 100-query workload) is placed relative
// to the data workspace either by area (co-centred MBR of M% — Figs 5.4,
// 5.5) or by overlap fraction (equal-size shifted workspaces — Figs 5.6,
// 5.7), and GCP / F-MQM / F-MBM answer the single large query.
type diskSweep struct {
	id        string
	dataP     string // dataset playing P (indexed)
	dataQ     string // dataset playing Q (disk-resident)
	mode      string // "area" or "overlap"
	values    []float64
	withGCP   bool
	blockPts  int
	k         int
	repeatsAt int64 // extra seed offset for query placement
}

// runDiskSweep executes one disk-resident figure.
func (e *Env) runDiskSweep(s diskSweep) (*stats.Figure, error) {
	if s.blockPts == 0 {
		s.blockPts = scaledBlockPoints(e.cfg.Scale)
	}
	if s.k == 0 {
		s.k = 8
	}
	tp, err := e.Tree(s.dataP)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(s.values))
	for i, v := range s.values {
		labels[i] = fmt.Sprintf("%g%%", v*100)
	}
	var xname string
	if s.mode == "area" {
		xname = "MBR area of Q"
	} else {
		xname = "overlap area"
	}
	title := fmt.Sprintf("Figure %s (P=%s, Q=%s): cost vs %s", s.id, s.dataP, s.dataQ, xname)
	fig := stats.NewFigure(title, xname, labels)

	ws := dataset.Workspace()
	for i, v := range s.values {
		var target geom.Rect
		switch s.mode {
		case "area":
			target, err = workload.CenteredRect(ws, v)
		case "overlap":
			target, err = workload.OverlapRect(ws, v)
		default:
			err = fmt.Errorf("experiments: unknown disk mode %q", s.mode)
		}
		if err != nil {
			return nil, err
		}
		qpts, err := e.scaledQuerySet(s.dataQ, target)
		if err != nil {
			return nil, err
		}
		opt := core.Options{K: s.k}

		if s.withGCP {
			meas, err := e.measureGCP(tp, qpts, opt)
			if err != nil {
				return nil, err
			}
			fig.Add("GCP", labels[i], meas)
		}
		for _, algo := range []string{"F-MQM", "F-MBM"} {
			meas, err := e.measureFDisk(tp, qpts, algo, s.blockPts, opt)
			if err != nil {
				return nil, err
			}
			fig.Add(algo, labels[i], meas)
		}
	}
	return fig, nil
}

// scaledBlockPoints shrinks the paper's 10,000-point blocks alongside the
// datasets so the block count (the crucial parameter: 3 for Q=PP, 20 for
// Q=TS) is preserved at reduced scale.
func scaledBlockPoints(scale float64) int {
	b := int(float64(core.DefaultBlockPoints) * scale)
	if b < 1 {
		b = 1
	}
	return b
}

// measureGCP builds an R*-tree over the query set (its cost excluded, as
// in §5.2) and runs GCP, reporting the summed NA of both trees.
func (e *Env) measureGCP(tp *rtree.Packed, qpts []geom.Point, opt core.Options) (stats.Measurement, error) {
	tq, err := e.buildTree(&dataset.Dataset{Name: "Q", Points: qpts}, 1<<40)
	if err != nil {
		return stats.Measurement{}, err
	}
	tp.Tree().Accountant().ResetAll()
	tq.Tree().Accountant().ResetAll()
	start := time.Now()
	rep, err := core.GCP(tp, tq, core.GCPOptions{Options: opt, PairBudget: e.cfg.GCPPairBudget})
	elapsed := time.Since(start)
	if errors.Is(err, core.ErrBudgetExceeded) {
		return stats.Measurement{DNF: true, Queries: 1}, nil
	}
	if err != nil {
		return stats.Measurement{}, err
	}
	if len(rep.Neighbors) == 0 {
		return stats.Measurement{}, fmt.Errorf("experiments: GCP returned no results")
	}
	return stats.Measurement{
		NodeAccesses: float64(tp.Tree().Accountant().Logical() + tq.Tree().Accountant().Logical()),
		CPU:          elapsed,
		Queries:      1,
	}, nil
}

// measureFDisk runs F-MQM or F-MBM over a fresh query file, reporting the
// R-tree NA plus the Q page reads (both behind the configured buffer).
func (e *Env) measureFDisk(pp *rtree.Packed, qpts []geom.Point, algo string, blockPts int, opt core.Options) (stats.Measurement, error) {
	tp := pp.Tree()
	opt.Packed = pp
	acct := pagestore.NewAccountant(e.cfg.BufferPages)
	qf, err := core.NewQueryFile(qpts, blockPts, acct, 1<<41)
	if err != nil {
		return stats.Measurement{}, err
	}
	tp.Accountant().ResetAll()
	start := time.Now()
	var rep *core.DiskReport
	switch algo {
	case "F-MQM":
		rep, err = core.FMQM(tp, qf, core.DiskOptions{Options: opt})
	case "F-MBM":
		rep, err = core.FMBM(tp, qf, core.DiskOptions{Options: opt})
	default:
		err = fmt.Errorf("experiments: unknown disk algorithm %q", algo)
	}
	elapsed := time.Since(start)
	if err != nil {
		return stats.Measurement{}, err
	}
	if len(rep.Neighbors) == 0 {
		return stats.Measurement{}, fmt.Errorf("experiments: %s returned no results", algo)
	}
	return stats.Measurement{
		NodeAccesses: float64(tp.Accountant().Logical() + acct.Logical()),
		CPU:          elapsed,
		Queries:      1,
	}, nil
}

// Fig54 reproduces Figure 5.4: P = TS, Q = PP scaled into a co-centred MBR
// of area M ∈ {2%..32%}; GCP vs F-MQM vs F-MBM, k = 8.
func (e *Env) Fig54() (*stats.Figure, error) {
	return e.runDiskSweep(diskSweep{
		id: "5.4", dataP: "TS", dataQ: "PP", mode: "area",
		values:  []float64{0.02, 0.04, 0.08, 0.16, 0.32},
		withGCP: true,
	})
}

// Fig55 reproduces Figure 5.5: P = PP, Q = TS. GCP is omitted, as in the
// paper ("it incurs excessively high cost").
func (e *Env) Fig55() (*stats.Figure, error) {
	return e.runDiskSweep(diskSweep{
		id: "5.5", dataP: "PP", dataQ: "TS", mode: "area",
		values: []float64{0.02, 0.04, 0.08, 0.16, 0.32},
	})
}

// Fig56 reproduces Figure 5.6: equal-size workspaces, overlap ∈ {0..100}%,
// P = TS, Q = PP, with GCP.
func (e *Env) Fig56() (*stats.Figure, error) {
	return e.runDiskSweep(diskSweep{
		id: "5.6", dataP: "TS", dataQ: "PP", mode: "overlap",
		values:  []float64{0, 0.25, 0.5, 0.75, 1},
		withGCP: true,
	})
}

// Fig57 reproduces Figure 5.7: P = PP, Q = TS, overlap sweep, GCP omitted.
func (e *Env) Fig57() (*stats.Figure, error) {
	return e.runDiskSweep(diskSweep{
		id: "5.7", dataP: "PP", dataQ: "TS", mode: "overlap",
		values: []float64{0, 0.25, 0.5, 0.75, 1},
	})
}

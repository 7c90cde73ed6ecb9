package experiments

import (
	"fmt"
	"time"

	"gnn/internal/core"
	"gnn/internal/dataset"
	"gnn/internal/geom"
	"gnn/internal/rtree"
	"gnn/internal/stats"
	"gnn/internal/workload"
)

// memAlgorithm is one curve of a memory-resident figure.
type memAlgorithm struct {
	Name string
	Run  func(*rtree.Tree, []geom.Point, core.Options) ([]core.GroupNeighbor, error)
}

// paperMemAlgos are the three §3 methods in the paper's presentation
// order, all best-first as in §5.
func paperMemAlgos() []memAlgorithm {
	return []memAlgorithm{
		{"MQM", core.MQM},
		{"SPM", core.SPM},
		{"MBM", core.MBM},
	}
}

// memSweep describes one memory-resident experiment: which parameter
// varies (the others stay at the paper's defaults n=64, M=8%, k=8).
type memSweep struct {
	id, dataset string
	vary        string // "n", "M" or "k"
	values      []float64
	algos       []memAlgorithm
	// k fixed value overrides (zero = paper default)
	n int
	m float64
	k int
}

func (s memSweep) fixed() (n int, m float64, k int) {
	n, m, k = 64, 0.08, 8
	if s.n != 0 {
		n = s.n
	}
	if s.m != 0 {
		m = s.m
	}
	if s.k != 0 {
		k = s.k
	}
	return n, m, k
}

// runMemSweep executes a §5.1-style sweep: for each x-value it generates a
// fresh workload (same MBR size, new placements) and averages NA and CPU
// per query for every algorithm.
func (e *Env) runMemSweep(s memSweep) (*stats.Figure, error) {
	t, err := e.Tree(s.dataset)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(s.values))
	for i, v := range s.values {
		labels[i] = formatX(s.vary, v)
	}
	title := fmt.Sprintf("Figure %s (%s): cost vs %s", s.id, s.dataset, s.vary)
	fig := stats.NewFigure(title, s.vary, labels)

	for i, v := range s.values {
		n, m, k := s.fixed()
		switch s.vary {
		case "n":
			n = int(v)
		case "M":
			m = v
		case "k":
			k = int(v)
		default:
			return nil, fmt.Errorf("experiments: unknown vary %q", s.vary)
		}
		queries, err := workload.Generate(workload.Spec{
			N:            n,
			AreaFraction: m,
			Queries:      e.cfg.Queries,
			Workspace:    dataset.Workspace(),
			Seed:         e.cfg.Seed + int64(i)*1000,
		})
		if err != nil {
			return nil, err
		}
		for _, a := range s.algos {
			meas, err := measureMemory(t, queries, a, core.Options{K: k})
			if err != nil {
				return nil, err
			}
			fig.Add(a.Name, labels[i], meas)
		}
	}
	return fig, nil
}

// measureMemory runs one algorithm over a workload and returns per-query
// averages. NA counts logical node accesses, which is what the paper
// plots (its MQM NA exceeds the tree's page count at large n, so the LRU
// buffer remark of §5.1 concerns wall time, not the NA series).
// Correctness is cross-checked against brute force on the first query of
// every workload (cheap tripwire).
func measureMemory(p *rtree.Packed, queries []workload.Query, a memAlgorithm, opt core.Options) (stats.Measurement, error) {
	return measureMemoryMetric(p, queries, a, opt, false)
}

// measureMemoryMetric implements measureMemory; usePhysical switches the
// NA column from logical node accesses (the paper's plotted metric) to
// physical buffer misses (what the A3 buffer ablation quantifies).
func measureMemoryMetric(p *rtree.Packed, queries []workload.Query, a memAlgorithm, opt core.Options, usePhysical bool) (stats.Measurement, error) {
	t := p.Tree()
	opt.Packed = p
	var elapsed time.Duration
	var accesses int64
	for qi, q := range queries {
		t.Accountant().ResetAll()
		start := time.Now()
		got, err := a.Run(t, q.Points, opt)
		elapsed += time.Since(start)
		if usePhysical {
			accesses += t.Accountant().Physical()
		} else {
			accesses += t.Accountant().Logical()
		}
		if err != nil {
			return stats.Measurement{}, fmt.Errorf("%s: %w", a.Name, err)
		}
		if qi == 0 {
			want, err := core.BruteForce(t, q.Points, opt)
			if err != nil {
				return stats.Measurement{}, err
			}
			if len(got) != len(want) || (len(got) > 0 && !closeEnough(got[0].Dist, want[0].Dist)) {
				return stats.Measurement{}, fmt.Errorf("%s: wrong answer on probe query", a.Name)
			}
		}
	}
	return stats.Measurement{
		NodeAccesses: float64(accesses) / float64(len(queries)),
		CPU:          elapsed / time.Duration(len(queries)),
		Queries:      len(queries),
	}, nil
}

func closeEnough(a, b float64) bool {
	d := a - b
	return d < 1e-6*(1+b) && d > -1e-6*(1+b)
}

func formatX(vary string, v float64) string {
	if vary == "M" {
		return fmt.Sprintf("%g%%", v*100)
	}
	return fmt.Sprintf("%g", v)
}

// Fig51 reproduces Figure 5.1: cost vs query cardinality n
// (M = 8%, k = 8, n ∈ {4..1024}) on the given dataset ("PP" or "TS").
func (e *Env) Fig51(ds string) (*stats.Figure, error) {
	return e.runMemSweep(memSweep{
		id: "5.1", dataset: ds, vary: "n",
		values: []float64{4, 16, 64, 256, 1024},
		algos:  paperMemAlgos(),
	})
}

// Fig52 reproduces Figure 5.2: cost vs query MBR area M
// (n = 64, k = 8, M ∈ {2%..32%}).
func (e *Env) Fig52(ds string) (*stats.Figure, error) {
	return e.runMemSweep(memSweep{
		id: "5.2", dataset: ds, vary: "M",
		values: []float64{0.02, 0.04, 0.08, 0.16, 0.32},
		algos:  paperMemAlgos(),
	})
}

// Fig53 reproduces Figure 5.3: cost vs number of neighbors k
// (n = 64, M = 8%, k ∈ {1..32}).
func (e *Env) Fig53(ds string) (*stats.Figure, error) {
	return e.runMemSweep(memSweep{
		id: "5.3", dataset: ds, vary: "k",
		values: []float64{1, 2, 8, 16, 32},
		algos:  paperMemAlgos(),
	})
}

// AblationH2Only reproduces the §5.1 footnote-3 comparison: MBM with both
// heuristics vs heuristic 2 alone vs SPM, sweeping n on the given dataset.
// The footnote reports H2-only MBM inferior to SPM; full MBM superior.
func (e *Env) AblationH2Only(ds string) (*stats.Figure, error) {
	h2only := func(t *rtree.Tree, qs []geom.Point, opt core.Options) ([]core.GroupNeighbor, error) {
		opt.DisableHeuristic3 = true
		return core.MBM(t, qs, opt)
	}
	return e.runMemSweep(memSweep{
		id: "A1", dataset: ds, vary: "n",
		values: []float64{4, 16, 64, 256},
		algos: []memAlgorithm{
			{"MBM", core.MBM},
			{"MBM-H2only", h2only},
			{"SPM", core.SPM},
		},
	})
}

// AblationCentroid compares SPM's centroid solvers (§3.2 uses gradient
// descent; Weiszfeld and the raw arithmetic mean are alternatives): a
// worse centroid loosens heuristic 1 and costs node accesses.
func (e *Env) AblationCentroid(ds string) (*stats.Figure, error) {
	mk := func(m core.CentroidMethod) func(*rtree.Tree, []geom.Point, core.Options) ([]core.GroupNeighbor, error) {
		return func(t *rtree.Tree, qs []geom.Point, opt core.Options) ([]core.GroupNeighbor, error) {
			opt.Centroid = m
			return core.SPM(t, qs, opt)
		}
	}
	return e.runMemSweep(memSweep{
		id: "A2", dataset: ds, vary: "n",
		values: []float64{4, 16, 64, 256},
		algos: []memAlgorithm{
			{"SPM-gradient", mk(core.GradientDescent)},
			{"SPM-weiszfeld", mk(core.Weiszfeld)},
			{"SPM-mean", mk(core.ArithmeticMean)},
		},
	})
}

// AblationBuffer quantifies the §5.1 remark that "MQM benefits from the
// existence of an LRU buffer": MQM PHYSICAL reads (buffer misses) on one
// workload under varying buffer sizes (0 = no buffer). This is the one
// experiment where the NA column reports physical rather than logical
// accesses.
func (e *Env) AblationBuffer(ds string) (*stats.Figure, error) {
	d, err := e.Dataset(ds)
	if err != nil {
		return nil, err
	}
	sizes := []int{0, 128, 512, 2048}
	labels := make([]string, len(sizes))
	for i, s := range sizes {
		labels[i] = fmt.Sprintf("%d", s)
	}
	fig := stats.NewFigure(
		fmt.Sprintf("Figure A3 (%s): MQM node accesses vs LRU buffer pages", ds),
		"buffer", labels)
	queries, err := workload.Generate(workload.Spec{
		N: 64, AreaFraction: 0.08, Queries: e.cfg.Queries,
		Workspace: dataset.Workspace(), Seed: e.cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		saved := e.cfg.BufferPages
		e.cfg.BufferPages = size
		t, err := e.buildTree(d, 0)
		e.cfg.BufferPages = saved
		if err != nil {
			return nil, err
		}
		meas, err := measureMemoryMetric(t, queries, memAlgorithm{"MQM", core.MQM}, core.Options{K: 8}, true)
		if err != nil {
			return nil, err
		}
		fig.Add("MQM", labels[i], meas)
	}
	return fig, nil
}

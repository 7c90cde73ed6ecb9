// Benchmarks: one testing.B entry per paper figure (5.1-5.7) and per
// ablation (A1-A3). Each benchmark runs the figure's workload at a reduced
// dataset scale (so `go test -bench=.` finishes in minutes) and reports
// the paper's metrics as custom units:
//
//	na/query — average R-tree node accesses (plus Q page reads for the
//	           disk-resident figures)
//	ns/op    — wall time per query (single-threaded; ≈ the paper's CPU)
//
// The full-scale sweeps with the paper's exact parameters are produced by
// `go run ./cmd/gnnbench -all`.
package gnn_test

import (
	"sync"
	"testing"

	"gnn"
	"gnn/internal/core"
	"gnn/internal/dataset"
	"gnn/internal/experiments"
	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
	"gnn/internal/workload"
)

// benchScale shrinks PP to ~2.4k and TS to ~19.5k points.
const benchScale = 0.1

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

func env() *experiments.Env {
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.Config{
			Scale:         benchScale,
			Queries:       20,
			Seed:          1,
			GCPPairBudget: 2_000_000,
		})
	})
	return benchEnv
}

func benchTree(b *testing.B, ds string) *rtree.Packed {
	b.Helper()
	t, err := env().Tree(ds)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// packPoints STR-packs pts under cfg.
func packPoints(b *testing.B, cfg rtree.Config, pts []geom.Point) *rtree.Packed {
	b.Helper()
	coords, err := rtree.Flatten(cfg, pts)
	if err != nil {
		b.Fatal(err)
	}
	p, err := rtree.PackSTR(cfg, coords, nil)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchQueries(b *testing.B, n int, m float64) []workload.Query {
	b.Helper()
	qs, err := workload.Generate(workload.Spec{
		N: n, AreaFraction: m, Queries: 20,
		Workspace: dataset.Workspace(), Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return qs
}

type benchAlgo struct {
	name string
	run  func(*rtree.Tree, []geom.Point, core.Options) ([]core.GroupNeighbor, error)
}

func memBenchAlgos() []benchAlgo {
	return []benchAlgo{
		{"MQM", core.MQM},
		{"SPM", core.SPM},
		{"MBM", core.MBM},
	}
}

// benchMemoryCell measures one (algorithm, workload) cell: every b.N
// iteration answers the whole 10-query workload once, with a cold buffer
// per query (queries are independent; the LRU buffer's documented role is
// within one MQM execution).
func benchMemoryCell(b *testing.B, ds string, a benchAlgo, n int, m float64, k int) {
	p := benchTree(b, ds)
	t := p.Tree()
	queries := benchQueries(b, n, m)[:10]
	opt := core.Options{K: k, Packed: p}
	var physical int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			t.Accountant().ResetAll()
			if _, err := a.run(t, q.Points, opt); err != nil {
				b.Fatal(err)
			}
			physical += t.Accountant().Logical()
		}
	}
	b.StopTimer()
	totalQueries := int64(b.N) * int64(len(queries))
	b.ReportMetric(float64(physical)/float64(totalQueries), "na/query")
	// ns/op normalised to a single query, not a whole workload.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalQueries), "ns/query")
}

// --- Figure 5.1: cost vs n (M = 8%, k = 8) ---
//
// The bench sweep stops at n = 256: MQM is quadratic in n (the finding the
// figure exists to show), and n = 1024 alone would dominate the whole
// bench run. gnnbench covers the full range.

func BenchmarkFig51(b *testing.B) {
	for _, ds := range []string{"PP", "TS"} {
		for _, n := range []int{4, 64, 256} {
			for _, a := range memBenchAlgos() {
				b.Run(ds+"/n="+itoa(n)+"/"+a.name, func(b *testing.B) {
					benchMemoryCell(b, ds, a, n, 0.08, 8)
				})
			}
		}
	}
}

// --- Figure 5.2: cost vs M (n = 64, k = 8) ---

func BenchmarkFig52(b *testing.B) {
	for _, ds := range []string{"PP", "TS"} {
		for _, m := range []float64{0.02, 0.32} {
			for _, a := range memBenchAlgos() {
				b.Run(ds+"/M="+pct(m)+"/"+a.name, func(b *testing.B) {
					benchMemoryCell(b, ds, a, 64, m, 8)
				})
			}
		}
	}
}

// --- Figure 5.3: cost vs k (n = 64, M = 8%) ---

func BenchmarkFig53(b *testing.B) {
	for _, ds := range []string{"PP", "TS"} {
		for _, k := range []int{1, 32} {
			for _, a := range memBenchAlgos() {
				b.Run(ds+"/k="+itoa(k)+"/"+a.name, func(b *testing.B) {
					benchMemoryCell(b, ds, a, 64, 0.08, k)
				})
			}
		}
	}
}

// --- Figures 5.4-5.7: disk-resident Q ---

// benchDiskCell measures one disk-resident cell. Each iteration answers
// the single whole-dataset query once with fresh counters.
func benchDiskCell(b *testing.B, dataP, dataQ string, area float64, overlapMode bool, algo string) {
	e := env()
	pp := benchTree(b, dataP)
	tp := pp.Tree()
	qd, err := e.Dataset(dataQ)
	if err != nil {
		b.Fatal(err)
	}
	ws := dataset.Workspace()
	var target geom.Rect
	if overlapMode {
		target, err = workload.OverlapRect(ws, area)
	} else {
		target, err = workload.CenteredRect(ws, area)
	}
	if err != nil {
		b.Fatal(err)
	}
	qpts := qd.ScaleTo(target, "Q").Points
	blockPts := int(float64(core.DefaultBlockPoints) * benchScale)

	var totalNA int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		acct := pagestore.NewAccountant(512)
		tp.Accountant().ResetAll()
		b.StartTimer()
		switch algo {
		case "GCP":
			pq := packPoints(b, rtree.Config{
				MaxEntries: rtree.DefaultMaxEntries,
				Accountant: acct,
				FirstPage:  1 << 40,
			}, qpts)
			if _, err := core.GCP(pp, pq, core.GCPOptions{
				Options: core.Options{K: 8}, PairBudget: e.Config().GCPPairBudget,
			}); err != nil && err != core.ErrBudgetExceeded {
				b.Fatal(err)
			}
		case "F-MQM", "F-MBM":
			qf, err := core.NewQueryFile(qpts, blockPts, acct, 1<<41)
			if err != nil {
				b.Fatal(err)
			}
			dopt := core.DiskOptions{Options: core.Options{K: 8, Packed: pp}}
			if algo == "F-MQM" {
				_, err = core.FMQM(tp, qf, dopt)
			} else {
				_, err = core.FMBM(tp, qf, dopt)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		totalNA += tp.Accountant().Logical() + acct.Logical()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(totalNA)/float64(b.N), "na/query")
}

func BenchmarkFig54(b *testing.B) {
	for _, m := range []float64{0.02, 0.32} {
		for _, algo := range []string{"GCP", "F-MQM", "F-MBM"} {
			b.Run("M="+pct(m)+"/"+algo, func(b *testing.B) {
				benchDiskCell(b, "TS", "PP", m, false, algo)
			})
		}
	}
}

func BenchmarkFig55(b *testing.B) {
	for _, m := range []float64{0.02, 0.32} {
		for _, algo := range []string{"F-MQM", "F-MBM"} {
			b.Run("M="+pct(m)+"/"+algo, func(b *testing.B) {
				benchDiskCell(b, "PP", "TS", m, false, algo)
			})
		}
	}
}

func BenchmarkFig56(b *testing.B) {
	for _, ov := range []float64{0, 1} {
		for _, algo := range []string{"GCP", "F-MQM", "F-MBM"} {
			b.Run("overlap="+pct(ov)+"/"+algo, func(b *testing.B) {
				benchDiskCell(b, "TS", "PP", ov, true, algo)
			})
		}
	}
}

func BenchmarkFig57(b *testing.B) {
	for _, ov := range []float64{0, 1} {
		for _, algo := range []string{"F-MQM", "F-MBM"} {
			b.Run("overlap="+pct(ov)+"/"+algo, func(b *testing.B) {
				benchDiskCell(b, "PP", "TS", ov, true, algo)
			})
		}
	}
}

// --- Ablations ---

// BenchmarkAblationH2Only: MBM with heuristic 2 only (§5.1 footnote 3).
func BenchmarkAblationH2Only(b *testing.B) {
	h2only := benchAlgo{"MBM-H2only", func(t *rtree.Tree, qs []geom.Point, opt core.Options) ([]core.GroupNeighbor, error) {
		opt.DisableHeuristic3 = true
		return core.MBM(t, qs, opt)
	}}
	for _, a := range append(memBenchAlgos()[1:], h2only) { // SPM, MBM, H2-only
		b.Run(a.name, func(b *testing.B) {
			benchMemoryCell(b, "PP", a, 64, 0.08, 8)
		})
	}
}

// BenchmarkAblationCentroid: SPM centroid solvers.
func BenchmarkAblationCentroid(b *testing.B) {
	mk := func(name string, m core.CentroidMethod) benchAlgo {
		return benchAlgo{name, func(t *rtree.Tree, qs []geom.Point, opt core.Options) ([]core.GroupNeighbor, error) {
			opt.Centroid = m
			return core.SPM(t, qs, opt)
		}}
	}
	for _, a := range []benchAlgo{
		mk("gradient", core.GradientDescent),
		mk("weiszfeld", core.Weiszfeld),
		mk("mean", core.ArithmeticMean),
	} {
		b.Run(a.name, func(b *testing.B) {
			benchMemoryCell(b, "PP", a, 64, 0.08, 8)
		})
	}
}

// BenchmarkAblationBuffer: MQM node accesses with and without an LRU
// buffer (§5.1 remark).
func BenchmarkAblationBuffer(b *testing.B) {
	for _, pages := range []int{0, 512} {
		b.Run("pages="+itoa(pages), func(b *testing.B) {
			d, err := env().Dataset("PP")
			if err != nil {
				b.Fatal(err)
			}
			acct := pagestore.NewAccountant(pages)
			p := packPoints(b, rtree.Config{
				MaxEntries: rtree.DefaultMaxEntries, Accountant: acct,
			}, d.Points)
			queries := benchQueries(b, 64, 0.08)
			acct.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := core.MQM(p.Tree(), q.Points, core.Options{K: 8, Packed: p}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			totalQueries := int64(b.N) * int64(len(queries))
			b.ReportMetric(float64(acct.Physical())/float64(totalQueries), "na/query")
		})
	}
}

// --- micro-benchmarks of the building blocks ---

func BenchmarkIndexBuild(b *testing.B) {
	d, err := env().Dataset("PP")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("STR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			packPoints(b, rtree.Config{}, d.Points)
		}
	})
	b.Run("Partitioned4", func(b *testing.B) {
		// BuildShardedIndex's path: the Hilbert split, then STR per shard.
		pts := make([]gnn.Point, len(d.Points))
		for i, p := range d.Points {
			pts[i] = gnn.Point(p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sx, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
			if err != nil {
				b.Fatal(err)
			}
			sx.Close()
		}
	})
	b.Run("Insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, _ := rtree.New(rtree.Config{})
			for j, p := range d.Points {
				if err := t.Insert(p, int64(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkPointNN(b *testing.B) {
	rd := benchTree(b, "TS").Reader(nil)
	q := geom.Point{5000, 5000}
	b.Run("BF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rd.NearestBF(q, 8)
		}
	})
	b.Run("DF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rd.NearestDF(q, 8)
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func pct(f float64) string {
	return itoa(int(f*100)) + "%"
}

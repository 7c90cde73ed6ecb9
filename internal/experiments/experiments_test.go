package experiments

import (
	"bytes"
	"strings"
	"testing"

	"gnn/internal/stats"
)

// smallEnv returns an environment small enough for unit tests: 2% of the
// paper's dataset sizes and 5 queries per workload.
func smallEnv() *Env {
	return NewEnv(Config{Scale: 0.02, Queries: 5, Seed: 42, GCPPairBudget: 2_000_000})
}

func TestEnvDatasets(t *testing.T) {
	e := smallEnv()
	pp, err := e.Dataset("PP")
	if err != nil || pp.Len() != 489 { // 2% of 24493
		t.Fatalf("PP: %v len %d", err, pp.Len())
	}
	ts, err := e.Dataset("TS")
	if err != nil || ts.Len() != 3899 { // 2% of 194971
		t.Fatalf("TS: %v len %d", err, ts.Len())
	}
	if _, err := e.Dataset("XX"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	// Caching: same pointer on second call.
	pp2, _ := e.Dataset("PP")
	if pp2 != pp {
		t.Fatal("dataset not cached")
	}
}

func TestEnvTree(t *testing.T) {
	e := smallEnv()
	tr, err := e.Tree("PP")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 489 {
		t.Fatalf("tree len %d", tr.Len())
	}
	if err := tr.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr2, _ := e.Tree("PP")
	if tr2 != tr {
		t.Fatal("tree not cached")
	}
}

func checkFigure(t *testing.T, fig *stats.Figure, wantSeries []string, xCount int) {
	t.Helper()
	names := fig.SeriesNames()
	if len(names) != len(wantSeries) {
		t.Fatalf("%s: series %v, want %v", fig.Title, names, wantSeries)
	}
	for i, s := range wantSeries {
		if names[i] != s {
			t.Fatalf("%s: series %v, want %v", fig.Title, names, wantSeries)
		}
	}
	if len(fig.XValues) != xCount {
		t.Fatalf("%s: %d x-values", fig.Title, len(fig.XValues))
	}
	for _, s := range names {
		for _, x := range fig.XValues {
			m, ok := fig.Get(s, x)
			if !ok {
				t.Fatalf("%s: missing cell (%s, %s)", fig.Title, s, x)
			}
			if !m.DNF && m.NodeAccesses <= 0 {
				t.Fatalf("%s: cell (%s,%s) has NA %v", fig.Title, s, x, m.NodeAccesses)
			}
		}
	}
}

func TestFig51Small(t *testing.T) {
	e := smallEnv()
	fig, err := e.runMemSweep(memSweep{
		id: "5.1", dataset: "PP", vary: "n",
		values: []float64{4, 16, 64},
		algos:  paperMemAlgos(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []string{"MQM", "SPM", "MBM"}, 3)

	// Expected shape: MQM's NA grows with n and exceeds MBM's at n=64.
	mqm64, _ := fig.Get("MQM", "64")
	mbm64, _ := fig.Get("MBM", "64")
	if mqm64.NodeAccesses <= mbm64.NodeAccesses {
		t.Errorf("MQM NA %v not above MBM NA %v at n=64", mqm64.NodeAccesses, mbm64.NodeAccesses)
	}
	mqm4, _ := fig.Get("MQM", "4")
	if mqm64.NodeAccesses <= mqm4.NodeAccesses {
		t.Errorf("MQM NA did not grow with n: %v vs %v", mqm4.NodeAccesses, mqm64.NodeAccesses)
	}
}

func TestFig52And53Small(t *testing.T) {
	e := smallEnv()
	fig, err := e.runMemSweep(memSweep{
		id: "5.2", dataset: "PP", vary: "M",
		values: []float64{0.02, 0.08, 0.32},
		algos:  paperMemAlgos(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []string{"MQM", "SPM", "MBM"}, 3)
	// Costs grow with M (checked loosely here — at 2% dataset scale the
	// absolute NA counts are tiny and noisy; the full-scale shape check
	// lives in EXPERIMENTS.md / the bench harness).
	lo, _ := fig.Get("MBM", "2%")
	hi, _ := fig.Get("MBM", "32%")
	if hi.NodeAccesses < 0.5*lo.NodeAccesses {
		t.Errorf("MBM NA collapsed with M: %v -> %v", lo.NodeAccesses, hi.NodeAccesses)
	}

	fig, err = e.runMemSweep(memSweep{
		id: "5.3", dataset: "PP", vary: "k",
		values: []float64{1, 8},
		algos:  paperMemAlgos(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []string{"MQM", "SPM", "MBM"}, 2)
}

func TestDiskFiguresSmall(t *testing.T) {
	e := smallEnv()
	fig, err := e.runDiskSweep(diskSweep{
		id: "5.4", dataP: "TS", dataQ: "PP", mode: "area",
		values: []float64{0.02, 0.08}, withGCP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []string{"GCP", "F-MQM", "F-MBM"}, 2)

	fig, err = e.runDiskSweep(diskSweep{
		id: "5.6", dataP: "TS", dataQ: "PP", mode: "overlap",
		values: []float64{0, 0.5}, withGCP: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []string{"F-MQM", "F-MBM"}, 2)
}

func TestAblations(t *testing.T) {
	e := smallEnv()
	fig, err := e.AblationH2Only("PP")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []string{"MBM", "MBM-H2only", "SPM"}, 4)
	// Full MBM must not access more nodes than H2-only anywhere.
	for _, x := range fig.XValues {
		full, _ := fig.Get("MBM", x)
		h2, _ := fig.Get("MBM-H2only", x)
		if full.NodeAccesses > h2.NodeAccesses {
			t.Errorf("x=%s: full MBM NA %v above H2-only %v", x, full.NodeAccesses, h2.NodeAccesses)
		}
	}

	fig, err = e.AblationCentroid("PP")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []string{"SPM-gradient", "SPM-weiszfeld", "SPM-mean"}, 4)

	fig, err = e.AblationBuffer("PP")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, []string{"MQM"}, 4)
	none, _ := fig.Get("MQM", "0")
	big, _ := fig.Get("MQM", "2048")
	if big.NodeAccesses > none.NodeAccesses {
		t.Errorf("buffer increased MQM NA: %v -> %v", none.NodeAccesses, big.NodeAccesses)
	}
}

func TestRegistryRun(t *testing.T) {
	ids := IDs()
	if len(ids) != 10 {
		t.Fatalf("IDs = %v", ids)
	}
	e := smallEnv()
	var buf bytes.Buffer
	if err := Run(e, "A3", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MQM") {
		t.Fatalf("output lacks series:\n%s", buf.String())
	}
	if err := Run(e, "bogus", &buf); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1.0 || c.Queries != 100 || c.Seed != 1 ||
		c.BufferPages != 512 || c.GCPPairBudget != 20_000_000 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestScaledBlockPoints(t *testing.T) {
	if scaledBlockPoints(1.0) != 10000 || scaledBlockPoints(0.02) != 200 ||
		scaledBlockPoints(0.00001) != 1 {
		t.Fatal("scaledBlockPoints wrong")
	}
}

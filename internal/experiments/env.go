// Package experiments reproduces the paper's evaluation (§5): one driver
// per figure that runs the same parameter sweep on the same (substitute)
// datasets and prints the same series — node accesses and CPU time per
// algorithm — as aligned tables.
//
// Figures 5.1-5.3 compare MQM/SPM/MBM on memory-resident workloads of 100
// queries; figures 5.4-5.7 compare GCP/F-MQM/F-MBM on disk-resident query
// sets. Three ablations (A1-A3) cover the design choices the paper
// discusses in passing: heuristic 2 vs 2+3, the centroid solver, and the
// LRU buffer's effect on MQM.
package experiments

import (
	"fmt"

	"gnn/internal/dataset"
	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/rtree"
)

// Config tunes an experiment run.
type Config struct {
	// Scale shrinks the datasets for quick runs: 1.0 is paper-size
	// (PP = 24,493 points, TS = 194,971), 0.1 keeps 10%. Default 1.0.
	Scale float64
	// Queries is the workload size for memory-resident experiments
	// (default 100, as in the paper).
	Queries int
	// Seed drives all generators (default 1).
	Seed int64
	// BufferPages sizes the LRU buffer attached to each tree and query
	// file (default 512 pages; the paper notes an LRU buffer exists).
	BufferPages int
	// GCPPairBudget caps GCP's closest-pair consumption; cells exceeding
	// it are reported DNF, like the paper's non-terminating GCP runs.
	// Default 20,000,000.
	GCPPairBudget int64
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Queries == 0 {
		c.Queries = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BufferPages == 0 {
		c.BufferPages = 512
	}
	if c.GCPPairBudget == 0 {
		c.GCPPairBudget = 20_000_000
	}
	return c
}

// Env caches the datasets and trees shared by the figure drivers so one
// harness invocation builds each of them only once.
type Env struct {
	cfg      Config
	datasets map[string]*dataset.Dataset
	trees    map[string]*rtree.Packed
}

// NewEnv prepares an experiment environment.
func NewEnv(cfg Config) *Env {
	return &Env{
		cfg:      cfg.withDefaults(),
		datasets: map[string]*dataset.Dataset{},
		trees:    map[string]*rtree.Packed{},
	}
}

// Dataset returns the named dataset ("PP" or "TS"), scaled per the
// configuration, generating and caching it on first use.
func (e *Env) Dataset(name string) (*dataset.Dataset, error) {
	if d, ok := e.datasets[name]; ok {
		return d, nil
	}
	var d *dataset.Dataset
	switch name {
	case "PP":
		d = dataset.GeneratePP(e.cfg.Seed)
	case "TS":
		d = dataset.GenerateTS(e.cfg.Seed)
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	if e.cfg.Scale < 1 {
		n := int(float64(len(d.Points)) * e.cfg.Scale)
		if n < 1 {
			n = 1
		}
		d = &dataset.Dataset{Name: d.Name, Points: d.Points[:n]}
	}
	e.datasets[name] = d
	return d, nil
}

// Tree returns the packed R-tree over the named dataset with a fresh
// LRU-buffered counter, building and caching it on first use.
func (e *Env) Tree(name string) (*rtree.Packed, error) {
	if t, ok := e.trees[name]; ok {
		return t, nil
	}
	d, err := e.Dataset(name)
	if err != nil {
		return nil, err
	}
	t, err := e.buildTree(d, 0)
	if err != nil {
		return nil, err
	}
	e.trees[name] = t
	return t, nil
}

// buildTree STR-packs a tree over the dataset with the paper's node
// capacity, attaching an LRU buffer when configured.
func (e *Env) buildTree(d *dataset.Dataset, firstPage pagestore.PageID) (*rtree.Packed, error) {
	cfg := rtree.Config{
		MaxEntries: rtree.DefaultMaxEntries,
		Accountant: pagestore.NewAccountant(e.cfg.BufferPages),
		FirstPage:  firstPage,
	}
	cols, err := rtree.Columns(cfg, d.Points)
	if err != nil {
		return nil, err
	}
	return rtree.PackSTR(cfg, cols, nil)
}

// scaledQuerySet returns the query dataset (named src) affinely mapped
// into target — the §5.2 placement of the disk-resident query sets.
func (e *Env) scaledQuerySet(src string, target geom.Rect) ([]geom.Point, error) {
	d, err := e.Dataset(src)
	if err != nil {
		return nil, err
	}
	return d.ScaleTo(target, d.Name+"-scaled").Points, nil
}

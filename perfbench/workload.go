package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"gnn"
	"gnn/internal/dataset"
	"gnn/internal/geom"
	"gnn/internal/server"
	"gnn/internal/workload"
)

// workloadSpec is one traffic mix. Every workload starts its own daemon.
type workloadSpec struct {
	name    string
	dataset string // "TS" or "PP" substitute
	shards  int    // 0: plain snapshot; >0: Hilbert-partitioned sharded snapshot
	agg     string // request aggregate
	n, k    int    // group size and neighbors per query
	// writeEvery makes every writeEvery-th request a write; 0 is reads only.
	writeEvery int
	// compactThreshold is gnnserve's -compact-threshold (0 leaves it unset).
	compactThreshold int
	// rate is the script length per second of --seconds. It is fixed, not
	// measured, so one seed always replays the same requests; it was chosen
	// so a run on a 2-core host takes about --seconds.
	rate float64
	// checkEvery samples one read in checkEvery (chosen by the seed) for
	// the brute-force reference check.
	checkEvery int
}

var workloads = []workloadSpec{
	{name: "ts-sum-n64", dataset: "TS", agg: "sum", n: 64, k: 8,
		rate: 700, checkEvery: 40},
	{name: "ts-max-n64-s4", dataset: "TS", shards: 4, agg: "max", n: 64, k: 8,
		rate: 1800, checkEvery: 100},
	// Threshold 256 folds the overlay every ~1000 requests, so one run
	// spans tens of compaction cycles (1024 gave only 4 in 11 s).
	{name: "pp-sum-n4-rw", dataset: "PP", agg: "sum", n: 4, k: 1,
		writeEvery: 4, compactThreshold: 256, rate: 4500, checkEvery: 16},
}

const (
	// datasetSeed fixes the point set: like the paper's real data sets it
	// is one fixed input, and --seed varies the request script over it.
	datasetSeed = 1
	// areaFraction is the paper's default query MBR area M (8%).
	areaFraction = 0.08
	// spareWrites is how many writes a read-only workload's script
	// carries for the ledger's write rows; they are never sent to the
	// daemon. The compaction row needs compactCycles × 256.
	spareWrites = 1024
	// insertIDBase keeps inserted IDs disjoint from the base IDs 0..N-1.
	insertIDBase = int64(1) << 32
)

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// basePoints generates the workload's fixed data set; point i has ID i.
func (w workloadSpec) basePoints() ([]gnn.Point, []int64) {
	var d *dataset.Dataset
	if w.dataset == "TS" {
		d = dataset.GenerateTS(datasetSeed)
	} else {
		d = dataset.GeneratePP(datasetSeed)
	}
	pts := make([]gnn.Point, len(d.Points))
	ids := make([]int64, len(d.Points))
	for i, p := range d.Points {
		pts[i] = gnn.Point(p)
		ids[i] = int64(i)
	}
	return pts, ids
}

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDeleteBase   // tombstones a base point
	opDeleteInsert // deletes a point inserted earlier in the script
)

func (k opKind) path() string {
	switch k {
	case opQuery:
		return "/v1/groupnn"
	case opInsert:
		return "/v1/insert"
	default:
		return "/v1/delete"
	}
}

// op is one scripted request.
type op struct {
	kind  opKind
	group []gnn.Point // opQuery
	p     gnn.Point   // writes
	id    int64       // writes
	check bool        // opQuery: compared with the brute-force reference
	body  []byte      // the marshalled request
}

// script is the request sequence of one run. Read-only workloads also
// carry spare writes for the ledger, which the daemon never sees.
type script struct {
	ops   []op
	spare []op
}

// writeGen produces the write mix: inserts near a random live base point,
// deletes of live base points and deletes of live earlier inserts, in
// equal shares (each block of three writes is a seeded permutation).
type writeGen struct {
	rng      *rand.Rand
	base     []gnn.Point
	liveBase []int       // indices into base still live
	liveIns  []gnn.Point // inserted points still live
	liveInID []int64
	nextID   int64
	block    []opKind
}

func newWriteGen(rng *rand.Rand, base []gnn.Point) *writeGen {
	g := &writeGen{rng: rng, base: base, nextID: insertIDBase}
	g.liveBase = make([]int, len(base))
	for i := range g.liveBase {
		g.liveBase[i] = i
	}
	return g
}

func (g *writeGen) next() op {
	if len(g.block) == 0 {
		g.block = []opKind{opInsert, opDeleteBase, opDeleteInsert}
		g.rng.Shuffle(3, func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	if kind == opDeleteInsert && len(g.liveIns) == 0 {
		kind = opInsert
	}
	switch kind {
	case opInsert:
		c := g.base[g.liveBase[g.rng.Intn(len(g.liveBase))]]
		p := gnn.Point{clampWS(c[0] + g.rng.NormFloat64()*20), clampWS(c[1] + g.rng.NormFloat64()*20)}
		id := g.nextID
		g.nextID++
		g.liveIns = append(g.liveIns, p)
		g.liveInID = append(g.liveInID, id)
		return op{kind: opInsert, p: p, id: id}
	case opDeleteBase:
		j := g.rng.Intn(len(g.liveBase))
		bi := g.liveBase[j]
		g.liveBase[j] = g.liveBase[len(g.liveBase)-1]
		g.liveBase = g.liveBase[:len(g.liveBase)-1]
		return op{kind: opDeleteBase, p: g.base[bi], id: int64(bi)}
	default:
		j := g.rng.Intn(len(g.liveIns))
		o := op{kind: opDeleteInsert, p: g.liveIns[j], id: g.liveInID[j]}
		last := len(g.liveIns) - 1
		g.liveIns[j], g.liveInID[j] = g.liveIns[last], g.liveInID[last]
		g.liveIns, g.liveInID = g.liveIns[:last], g.liveInID[:last]
		return o
	}
}

func clampWS(v float64) float64 {
	return min(max(v, 0), dataset.WorkspaceSize)
}

// counts returns how many requests a run of the given length sends, and
// how many of them are reads and writes.
func (w workloadSpec) counts(seconds int) (timed, reads, writes int) {
	timed = int(w.rate * float64(seconds))
	if w.writeEvery > 0 {
		writes = timed / w.writeEvery
	}
	return timed, timed - writes, writes
}

// buildScript generates the run's requests from the seed: one in
// writeEvery a write, the rest reads. Query groups follow the paper's generator: n
// points uniform in a square of area M placed uniformly in the workspace.
func buildScript(w workloadSpec, base []gnn.Point, seed int64, seconds int) (*script, error) {
	nOps, nReads, _ := w.counts(seconds)
	groups, err := workload.Generate(workload.Spec{
		N: w.n, AreaFraction: areaFraction, Queries: nReads,
		Workspace: dataset.Workspace(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	wg := newWriteGen(rng, base)
	s := &script{ops: make([]op, 0, nOps)}
	next := 0
	for i := 0; i < nOps; i++ {
		if w.writeEvery > 0 && i%w.writeEvery == w.writeEvery-1 {
			s.ops = append(s.ops, wg.next())
			continue
		}
		s.ops = append(s.ops, op{
			kind:  opQuery,
			group: toGNN(groups[next].Points),
			check: rng.Intn(w.checkEvery) == 0,
		})
		next++
	}
	if w.writeEvery == 0 {
		for range spareWrites {
			s.spare = append(s.spare, wg.next())
		}
	}
	for _, ops := range [][]op{s.ops, s.spare} {
		for i := range ops {
			if err := ops[i].marshal(w); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func toGNN(pts []geom.Point) []gnn.Point {
	out := make([]gnn.Point, len(pts))
	for i, p := range pts {
		out[i] = gnn.Point(p)
	}
	return out
}

// marshal renders the request body in the daemon's own wire schema.
func (o *op) marshal(w workloadSpec) error {
	var v any
	if o.kind == opQuery {
		q := make([][]float64, len(o.group))
		for i, p := range o.group {
			q[i] = p
		}
		v = server.QueryRequest{Query: q, K: w.k, Agg: w.agg}
	} else {
		v = server.MutateRequest{Point: o.p, ID: o.id}
	}
	b, err := json.Marshal(v)
	o.body = b
	return err
}

// writes returns the script's writes in order, spare ones included.
func (s *script) writes() []op {
	var out []op
	for _, ops := range [][]op{s.ops, s.spare} {
		for _, o := range ops {
			if o.kind != opQuery {
				out = append(out, o)
			}
		}
	}
	return out
}

// firstQueries returns up to n query ops of the script, in order.
func (s *script) firstQueries(n int) []op {
	var out []op
	for _, o := range s.ops {
		if o.kind == opQuery && len(out) < n {
			out = append(out, o)
		}
	}
	return out
}

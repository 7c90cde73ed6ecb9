// Command gnnquery runs an ad-hoc GNN query against a dataset file or a
// pre-built index snapshot.
//
// The data file is in gnngen's binary or CSV format — rebuilt into an
// index on every run — or a snapshot emitted by gnngen -format snapshot
// / the -snapshot flag, which cold-starts without rebuilding (plain and
// sharded snapshots are detected automatically). Query points are given
// inline as "x,y;x,y;..." or read from a second file. Examples:
//
//	gnngen -dataset PP -out pp.bin
//	gnnquery -data pp.bin -query "2000,3000;2500,3500;1800,2900" -k 3
//	gnnquery -data pp.bin -queryfile users.csv -k 5 -algo MQM -agg max
//	gnnquery -data pp.bin -snapshot pp.snap        # convert once ...
//	gnnquery -data pp.snap -query "2000,3000" -k 3 # ... serve instantly
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gnn"
	"gnn/internal/dataset"
	"gnn/internal/snapshot"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "dataset file (bin, csv or snapshot; required)")
		queryStr  = flag.String("query", "", `inline query points "x,y;x,y;..."`)
		queryPath = flag.String("queryfile", "", "query points file (bin or csv)")
		k         = flag.Int("k", 1, "number of neighbors")
		algoName  = flag.String("algo", "MBM", "MQM | SPM | MBM | brute")
		aggName   = flag.String("agg", "sum", "sum | max | min")
		showCost  = flag.Bool("cost", false, "print node-access counts")
		snapOut   = flag.String("snapshot", "", "write the loaded index as a snapshot to this file")
	)
	flag.Parse()
	if *dataPath == "" || (*queryStr == "" && *queryPath == "" && *snapOut == "") {
		fmt.Fprintln(os.Stderr, `usage: gnnquery -data pp.bin -query "x,y;x,y" [-k 3] | -data pp.bin -snapshot pp.snap`)
		flag.PrintDefaults()
		os.Exit(2)
	}

	ix, err := openIndex(*dataPath)
	fail(err)

	if *snapOut != "" {
		fail(writeSnapshotOut(ix, *snapOut))
		if *queryStr == "" && *queryPath == "" {
			return
		}
	}

	var query []gnn.Point
	if *queryStr != "" {
		query, err = parseInline(*queryStr)
	} else {
		var qd *dataset.Dataset
		qd, err = loadDataset(*queryPath)
		if err == nil {
			for _, p := range qd.Points {
				query = append(query, gnn.Point(p))
			}
		}
	}
	fail(err)

	opts := []gnn.QueryOption{gnn.WithK(*k)}
	switch strings.ToUpper(*algoName) {
	case "MQM":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoMQM))
	case "SPM":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoSPM))
	case "MBM":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoMBM))
	case "BRUTE":
		opts = append(opts, gnn.WithAlgorithm(gnn.AlgoBruteForce))
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algoName))
	}
	switch strings.ToLower(*aggName) {
	case "sum":
	case "max":
		opts = append(opts, gnn.WithAggregate(gnn.MaxDist))
	case "min":
		opts = append(opts, gnn.WithAggregate(gnn.MinDist))
	default:
		fail(fmt.Errorf("unknown aggregate %q", *aggName))
	}

	ix.ResetCost()
	res, err := ix.GroupNN(query, opts...)
	fail(err)
	fmt.Printf("%d data points, %d query points, k=%d, %s/%s\n",
		ix.Len(), len(query), *k, strings.ToUpper(*algoName), strings.ToLower(*aggName))
	for i, r := range res {
		fmt.Printf("%2d. id=%-8d point=(%.2f, %.2f)  dist=%.3f\n",
			i+1, r.ID, r.Point[0], r.Point[1], r.Dist)
	}
	if *showCost {
		c := ix.Cost()
		fmt.Printf("cost: %d node accesses (%d logical, %d buffer hits)\n",
			c.NodeAccesses, c.LogicalAccesses, c.BufferHits)
	}
}

// openIndex loads the data file as an index: snapshot files (detected by
// sniffing their header) are opened directly — zero rebuild, plain or
// sharded as the file says — while dataset files are bulk-loaded as
// before. For snapshots it prints what was loaded, via Stats.
func openIndex(path string) (*gnn.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	head := make([]byte, snapshot.SniffLen)
	n, err := io.ReadFull(f, head)
	f.Close()
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		// A short file is just not a snapshot (the dataset path decides
		// what it is), but a real read error must not be mistaken for one.
		return nil, fmt.Errorf("sniffing %s: %w", path, err)
	}
	if snapshot.Sniff(head[:n]) {
		ix, err := gnn.OpenSnapshotFile(path)
		if err != nil {
			return nil, err
		}
		s := ix.Stats()
		fmt.Printf("loaded snapshot %s: %d points, dim %d, %s, %d nodes, ~%d KiB arena\n",
			path, s.Points, s.Dim, shardsLabel(s.Shards), s.Nodes, s.ArenaBytes/1024)
		return ix, nil
	}
	data, err := loadDataset(path)
	if err != nil {
		return nil, err
	}
	pts := make([]gnn.Point, len(data.Points))
	for i, p := range data.Points {
		pts[i] = gnn.Point(p)
	}
	return gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
}

func shardsLabel(s int) string {
	if s == 0 {
		return "unsharded"
	}
	return fmt.Sprintf("%d shards", s)
}

// writeSnapshotOut persists the loaded index.
func writeSnapshotOut(ix *gnn.Index, path string) error {
	if err := ix.WriteSnapshotFile(path); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("snapshot written to %s (%d bytes)\n", path, fi.Size())
	return nil
}

func loadDataset(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		return dataset.ReadCSV(f, path)
	}
	return dataset.Read(f)
}

func parseInline(s string) ([]gnn.Point, error) {
	var out []gnn.Point
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		coords := strings.Split(part, ",")
		if len(coords) != 2 {
			return nil, fmt.Errorf("bad query point %q (want x,y)", part)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(coords[0]), 64)
		if err != nil {
			return nil, err
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(coords[1]), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, gnn.Point{x, y})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no query points in %q", s)
	}
	return out, nil
}

// fail exits non-zero on error. Corruption gets its own message and
// exit code (3), so operators and scripts can tell a damaged snapshot
// from a usage error: a checksum/truncation failure means the file must
// be regenerated, not the command line fixed.
func fail(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, gnn.ErrSnapshotChecksum) || errors.Is(err, gnn.ErrSnapshotTruncated) || errors.Is(err, gnn.ErrSnapshotCorrupt) {
		fmt.Fprintf(os.Stderr, "gnnquery: snapshot is corrupt: %v\n", err)
		fmt.Fprintln(os.Stderr, "gnnquery: the file is damaged or was cut short mid-write; regenerate it (gnngen -format snapshot, or gnnquery -snapshot) — do not retry with different flags")
		os.Exit(3)
	}
	fmt.Fprintln(os.Stderr, "gnnquery:", err)
	os.Exit(1)
}

// Command gnngen generates the experiment datasets and writes them to disk
// in the library's binary format, as CSV, or as a ready-to-serve index
// snapshot (see the README's "Persistence" section).
//
// Usage:
//
//	gnngen -dataset PP -out pp.bin
//	gnngen -dataset TS -out ts.csv -format csv
//	gnngen -dataset uniform -n 50000 -out u.bin
//	gnngen -dataset TS -out ts.snap -format snapshot          # packed index
//	gnngen -dataset TS -out ts4.snap -format snapshot -shards 4
package main

import (
	"flag"
	"fmt"
	"os"

	"gnn"
	"gnn/internal/dataset"
)

func main() {
	var (
		name     = flag.String("dataset", "PP", "PP | TS | uniform | clustered | polyline")
		n        = flag.Int("n", 10000, "cardinality for synthetic generators")
		groups   = flag.Int("groups", 100, "clusters/polylines for synthetic generators")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("out", "", "output file (required)")
		format   = flag.String("format", "bin", "bin | csv | snapshot")
		shards   = flag.Int("shards", 0, "snapshot format: build a sharded index with that many shards (0 = plain)")
		capacity = flag.Int("node-capacity", 0, "snapshot format: R-tree node capacity (0 = default)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "usage: gnngen -dataset PP -out pp.bin")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if (*shards != 0 || *capacity != 0) && *format != "snapshot" {
		fmt.Fprintln(os.Stderr, "gnngen: -shards and -node-capacity apply to -format snapshot only")
		os.Exit(2)
	}

	var d *dataset.Dataset
	switch *name {
	case "PP":
		d = dataset.GeneratePP(*seed)
	case "TS":
		d = dataset.GenerateTS(*seed)
	case "uniform":
		d = dataset.GenerateUniform("uniform", *n, *seed)
	case "clustered":
		d = dataset.GenerateClustered("clustered", *n, *groups, *seed)
	case "polyline":
		d = dataset.GeneratePolylines("polyline", *n, *groups, *seed)
	default:
		fmt.Fprintf(os.Stderr, "gnngen: unknown dataset %q\n", *name)
		os.Exit(2)
	}

	if *format == "snapshot" {
		if err := writeSnapshot(d, *out, *shards, *capacity); err != nil {
			fmt.Fprintln(os.Stderr, "gnngen:", err)
			os.Exit(1)
		}
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnngen:", err)
		os.Exit(1)
	}
	defer f.Close()
	switch *format {
	case "bin":
		err = d.Write(f)
	case "csv":
		err = d.WriteCSV(f)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gnngen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d points (%s)\n", *out, d.Len(), d.Name)
}

// writeSnapshot bulk-loads an index over the generated points and
// serialises it, so gnnquery (or any embedder) can cold-start from the
// file without re-building.
func writeSnapshot(d *dataset.Dataset, out string, shards, capacity int) error {
	pts := make([]gnn.Point, len(d.Points))
	for i, p := range d.Points {
		pts[i] = gnn.Point(p)
	}
	cfg := gnn.IndexConfig{NodeCapacity: capacity}
	var ix *gnn.Index
	var err error
	if shards > 0 {
		ix, err = gnn.BuildShardedIndex(pts, nil, shards, cfg)
	} else {
		ix, err = gnn.BuildIndex(pts, nil, cfg)
	}
	if err != nil {
		return err
	}
	defer ix.Close()
	if err := ix.WriteSnapshotFile(out); err != nil {
		return err
	}
	stats := ix.Stats()
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: snapshot of %d points (%s), %d shards, %d nodes, %d bytes\n",
		out, stats.Points, d.Name, stats.Shards, stats.Nodes, fi.Size())
	return nil
}

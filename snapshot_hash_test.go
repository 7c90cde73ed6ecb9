package gnn_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"gnn"
	"gnn/internal/dataset"
)

// TestFullScaleSnapshotHashes pins the layout of the paper-scale
// indexes: the sha256 of the snapshot bytes that `gnngen -format
// snapshot` writes for TS, PP and 4-shard TS from dataset seed 1 at the
// default node capacity. The bulk loaders' orders, the Hilbert shard
// split, the page numbering and the encoder all feed these bytes.
// TestSeedStabilityGoldens pins the inputs.
func TestFullScaleSnapshotHashes(t *testing.T) {
	points := func(d *dataset.Dataset) []gnn.Point {
		pts := make([]gnn.Point, len(d.Points))
		for i, p := range d.Points {
			pts[i] = gnn.Point(p)
		}
		return pts
	}
	ts, pp := points(dataset.GenerateTS(1)), points(dataset.GeneratePP(1))
	for _, tc := range []struct {
		name   string
		pts    []gnn.Point
		shards int
		want   string
	}{
		{"TS", ts, 0, "8c92b32e7680a10bef7258ff9bd80be1d412abcffbfdec19fff316c9d6921a9a"},
		{"PP", pp, 0, "d86f56e1c6c125e94fb89c909db578e801ba93af4041999baee87debf91ca47f"},
		{"TS/4-shards", ts, 4, "a18245e2597ef9c868d3b90ad7e92f9d2cefe6a81be9523717da8e063c11f656"},
	} {
		var ix interface {
			WriteSnapshot(io.Writer) error
			Close() error
		}
		var err error
		if tc.shards > 0 {
			ix, err = gnn.BuildShardedIndex(tc.pts, nil, tc.shards, gnn.IndexConfig{})
		} else {
			ix, err = gnn.BuildIndex(tc.pts, nil, gnn.IndexConfig{})
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		err = ix.WriteSnapshot(h)
		ix.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: snapshot sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

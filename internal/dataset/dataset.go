// Package dataset provides the point data the experiments run on.
//
// The paper evaluates on two real data sets that are no longer available
// from their original sites:
//
//   - PP [Web1]: 24,493 populated places in North America, and
//   - TS [Web2]: 194,971 centroids of stream MBRs in Iowa, Kansas,
//     Missouri and Nebraska.
//
// GeneratePP and GenerateTS build seeded synthetic substitutes of identical
// cardinality and similar spatial character (see DESIGN.md for the
// substitution argument): PP is strongly clustered around "city" centres
// with an east-heavy skew; TS exhibits the 1-D locality of hydrography by
// sampling points along random-walk polylines.
//
// All datasets live in the Workspace rectangle [0, 10000]².
package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"gnn/internal/geom"
)

// WorkspaceSize is the side length of the canonical square workspace.
const WorkspaceSize = 10000.0

// Workspace returns the canonical workspace rectangle [0,10000]².
func Workspace() geom.Rect {
	return geom.NewRect(geom.Point{0, 0}, geom.Point{WorkspaceSize, WorkspaceSize})
}

// Cardinalities of the paper's datasets.
const (
	PPSize = 24493
	TSSize = 194971
)

// Dataset is a named, bounded point collection.
type Dataset struct {
	Name   string
	Points []geom.Point
}

// Bounds returns the MBR of the dataset; ok is false when empty.
func (d *Dataset) Bounds() (geom.Rect, bool) {
	if len(d.Points) == 0 {
		return geom.Rect{}, false
	}
	return geom.BoundingRect(d.Points), true
}

// Len returns the number of points.
func (d *Dataset) Len() int { return len(d.Points) }

// GeneratePP returns the PP substitute: PPSize points in ~280 Gaussian
// clusters whose centres are skewed towards the "east" (high x), mimicking
// the population distribution of North America. Deterministic per seed.
func GeneratePP(seed int64) *Dataset {
	return GenerateClustered("PP", PPSize, 280, seed)
}

// GenerateTS returns the TS substitute: TSSize points sampled along ~2400
// random-walk polylines ("streams"). Deterministic per seed.
func GenerateTS(seed int64) *Dataset {
	return GeneratePolylines("TS", TSSize, 2400, seed)
}

// GenerateUniform returns n points uniform in the workspace.
func GenerateUniform(name string, n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * WorkspaceSize, rng.Float64() * WorkspaceSize}
	}
	return &Dataset{Name: name, Points: pts}
}

// GenerateClustered returns n points grouped into the given number of
// Gaussian clusters. Cluster centres are distributed with density
// increasing in x (an east-heavy skew) and cluster populations follow a
// heavy-tailed split so a few "metropolises" dominate, as in census data.
func GenerateClustered(name string, n, clusters int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	if clusters < 1 {
		clusters = 1
	}
	type cluster struct {
		cx, cy, sd float64
		weight     float64
	}
	cs := make([]cluster, clusters)
	var totalW float64
	for i := range cs {
		// sqrt-biased x → more clusters at high x.
		cx := math.Sqrt(rng.Float64()) * WorkspaceSize
		cy := rng.Float64() * WorkspaceSize
		sd := (0.002 + 0.01*rng.Float64()) * WorkspaceSize
		w := math.Pow(rng.Float64(), 2) + 0.02 // heavy-tailed weights
		cs[i] = cluster{cx, cy, sd, w}
		totalW += w
	}
	pts := make([]geom.Point, 0, n)
	for i := range cs {
		cnt := int(math.Round(cs[i].weight / totalW * float64(n)))
		for j := 0; j < cnt && len(pts) < n; j++ {
			x := clampWS(cs[i].cx + rng.NormFloat64()*cs[i].sd)
			y := clampWS(cs[i].cy + rng.NormFloat64()*cs[i].sd)
			pts = append(pts, geom.Point{x, y})
		}
	}
	for len(pts) < n { // rounding shortfall → fill from random clusters
		c := cs[rng.Intn(len(cs))]
		x := clampWS(c.cx + rng.NormFloat64()*c.sd)
		y := clampWS(c.cy + rng.NormFloat64()*c.sd)
		pts = append(pts, geom.Point{x, y})
	}
	return &Dataset{Name: name, Points: pts}
}

// GeneratePolylines returns n points sampled along random-walk polylines,
// reproducing the linear locality of stream/road data. Each polyline
// starts at a random position, picks a drift direction, and wanders with
// small turns; points are dropped at roughly uniform arc-length intervals.
func GeneratePolylines(name string, n, lines int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	if lines < 1 {
		lines = 1
	}
	perLine := n / lines
	if perLine < 2 {
		perLine = 2
	}
	step := WorkspaceSize * 0.004
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		x := rng.Float64() * WorkspaceSize
		y := rng.Float64() * WorkspaceSize
		dir := rng.Float64() * 2 * math.Pi
		count := perLine/2 + rng.Intn(perLine)
		for j := 0; j < count && len(pts) < n; j++ {
			pts = append(pts, geom.Point{clampWS(x), clampWS(y)})
			dir += (rng.Float64() - 0.5) * 0.6 // gentle meander
			x += math.Cos(dir) * step
			y += math.Sin(dir) * step
			if x < 0 || x > WorkspaceSize || y < 0 || y > WorkspaceSize {
				break // stream left the workspace
			}
		}
	}
	return &Dataset{Name: name, Points: pts}
}

func clampWS(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > WorkspaceSize {
		return WorkspaceSize
	}
	return v
}

// ScaleTo returns a copy of d affinely mapped from its own bounds onto the
// target rectangle. Used by the disk-resident experiments, which place the
// query dataset in an MBR of prescribed area/position (§5.2).
func (d *Dataset) ScaleTo(target geom.Rect, name string) *Dataset {
	src, ok := d.Bounds()
	if !ok {
		return &Dataset{Name: name}
	}
	out := make([]geom.Point, len(d.Points))
	for i, p := range d.Points {
		q := make(geom.Point, len(p))
		for j := range p {
			span := src.Hi[j] - src.Lo[j]
			t := 0.5
			if span > 0 {
				t = (p[j] - src.Lo[j]) / span
			}
			q[j] = target.Lo[j] + t*(target.Hi[j]-target.Lo[j])
		}
		out[i] = q
	}
	return &Dataset{Name: name, Points: out}
}

// --- persistence ---

var magic = [4]byte{'G', 'N', 'N', '1'}

// Write serialises the dataset in a compact binary format.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	name := []byte(d.Name)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	dim := uint32(2)
	if len(d.Points) > 0 {
		dim = uint32(len(d.Points[0]))
	}
	if err := binary.Write(bw, binary.LittleEndian, dim); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(d.Points))); err != nil {
		return err
	}
	for _, p := range d.Points {
		if uint32(len(p)) != dim {
			return fmt.Errorf("dataset: mixed dimensionality (%d vs %d)", len(p), dim)
		}
		for _, v := range p {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ErrBadFormat reports a malformed dataset stream.
var ErrBadFormat = errors.New("dataset: bad format")

// Read deserialises a dataset written by Write.
func Read(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, m)
	}
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if nameLen > 1<<20 {
		return nil, fmt.Errorf("%w: name length %d", ErrBadFormat, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	var dim uint32
	if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if dim == 0 || dim > 64 {
		return nil, fmt.Errorf("%w: dimension %d", ErrBadFormat, dim)
	}
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if n > 1<<32 {
		return nil, fmt.Errorf("%w: cardinality %d", ErrBadFormat, n)
	}
	pts := make([]geom.Point, n)
	buf := make([]float64, dim)
	for i := range pts {
		for j := range buf {
			if err := binary.Read(br, binary.LittleEndian, &buf[j]); err != nil {
				return nil, fmt.Errorf("%w: truncated at point %d: %v", ErrBadFormat, i, err)
			}
		}
		p := make(geom.Point, dim)
		copy(p, buf)
		pts[i] = p
	}
	return &Dataset{Name: string(name), Points: pts}, nil
}

// WriteCSV emits one "x,y[,...]" line per point.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, p := range d.Points {
		for j, v := range p {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses points from "x,y[,...]" lines. Blank lines and lines
// starting with '#' are skipped.
func ReadCSV(r io.Reader, name string) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var pts []geom.Point
	dim := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if dim == -1 {
			dim = len(fields)
		} else if len(fields) != dim {
			return nil, fmt.Errorf("%w: line %d has %d fields, want %d",
				ErrBadFormat, lineNo, len(fields), dim)
		}
		p := make(geom.Point, len(fields))
		for j, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo, err)
			}
			p[j] = v
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &Dataset{Name: name, Points: pts}, nil
}

package dataset

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"gnn/internal/geom"
)

func TestGeneratePP(t *testing.T) {
	d := GeneratePP(1)
	if d.Len() != PPSize {
		t.Fatalf("PP size = %d, want %d", d.Len(), PPSize)
	}
	b, ok := d.Bounds()
	if !ok || !containsRect(Workspace(), b) {
		t.Fatalf("PP bounds %v escape workspace", b)
	}
	// Determinism.
	d2 := GeneratePP(1)
	for i := range d.Points {
		if !d.Points[i].Equal(d2.Points[i]) {
			t.Fatal("PP not deterministic")
		}
	}
	// Different seed → different data.
	d3 := GeneratePP(2)
	same := 0
	for i := range d.Points {
		if d.Points[i].Equal(d3.Points[i]) {
			same++
		}
	}
	if same > d.Len()/100 {
		t.Fatalf("seeds 1 and 2 share %d points", same)
	}
}

func TestGenerateTS(t *testing.T) {
	d := GenerateTS(1)
	if d.Len() != TSSize {
		t.Fatalf("TS size = %d, want %d", d.Len(), TSSize)
	}
	b, ok := d.Bounds()
	if !ok || !containsRect(Workspace(), b) {
		t.Fatalf("TS bounds %v escape workspace", b)
	}
}

func TestClusterednessOfPP(t *testing.T) {
	// A clustered set has far smaller mean NN distance than uniform of the
	// same cardinality. Compare on a subsample grid count statistic: count
	// occupied cells of a 50x50 grid; clustered data occupies far fewer.
	occupied := func(d *Dataset) int {
		cells := map[[2]int]bool{}
		for _, p := range d.Points {
			cells[[2]int{int(p[0] / (WorkspaceSize / 50)), int(p[1] / (WorkspaceSize / 50))}] = true
		}
		return len(cells)
	}
	pp := GeneratePP(3)
	uni := GenerateUniform("U", PPSize, 3)
	if o1, o2 := occupied(pp), occupied(uni); o1 > o2*3/4 {
		t.Fatalf("PP occupies %d cells, uniform %d — not clustered enough", o1, o2)
	}
}

func TestPolylineLocality(t *testing.T) {
	// Consecutive points of TS come from polyline walks: mean consecutive
	// distance must be tiny relative to the workspace.
	ts := GeneratePolylines("t", 20000, 200, 4)
	var sum float64
	cnt := 0
	for i := 1; i < len(ts.Points); i++ {
		d := geom.Dist(ts.Points[i-1], ts.Points[i])
		if d < WorkspaceSize*0.05 { // same polyline
			sum += d
			cnt++
		}
	}
	if cnt < len(ts.Points)/2 {
		t.Fatalf("only %d/%d consecutive pairs are near — no polyline structure", cnt, len(ts.Points))
	}
	if avg := sum / float64(cnt); avg > WorkspaceSize*0.01 {
		t.Fatalf("mean intra-line hop %v too large", avg)
	}
}

func TestGenerateUniformAndClusteredSizes(t *testing.T) {
	for _, n := range []int{0, 1, 17, 1000} {
		if got := GenerateUniform("u", n, 5).Len(); got != n {
			t.Errorf("uniform %d → %d", n, got)
		}
		if got := GenerateClustered("c", n, 10, 5).Len(); got != n {
			t.Errorf("clustered %d → %d", n, got)
		}
	}
	if got := GenerateClustered("c", 100, 0, 5).Len(); got != 100 {
		t.Errorf("clusters=0 → %d points", got)
	}
	if got := GeneratePolylines("p", 100, 0, 5).Len(); got != 100 {
		t.Errorf("lines=0 → %d points", got)
	}
}

func TestScaleTo(t *testing.T) {
	d := GenerateUniform("u", 500, 6)
	target := geom.NewRect(geom.Point{100, 200}, geom.Point{300, 400})
	s := d.ScaleTo(target, "scaled")
	if s.Len() != d.Len() || s.Name != "scaled" {
		t.Fatalf("scaled len/name = %d/%q", s.Len(), s.Name)
	}
	b, _ := s.Bounds()
	if !containsRect(target, b) {
		t.Fatalf("scaled bounds %v escape target %v", b, target)
	}
	// The scaled copy should essentially fill the target.
	if area(b) < area(target)*0.9 {
		t.Fatalf("scaled bounds %v too small for %v", b, target)
	}
	// Empty dataset.
	e := (&Dataset{Name: "e"}).ScaleTo(target, "e2")
	if e.Len() != 0 {
		t.Fatal("scaling empty dataset produced points")
	}
}

func TestScaleToDegenerate(t *testing.T) {
	d := &Dataset{Name: "d", Points: []geom.Point{{5, 5}, {5, 5}}}
	target := geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10})
	s := d.ScaleTo(target, "s")
	for _, p := range s.Points {
		if !p.Equal(geom.Point{5, 5}) {
			t.Fatalf("degenerate scale moved point to %v", p)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	d := GenerateUniform("round-trip", 1234, 7)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.Len() != d.Len() {
		t.Fatalf("round trip: %q/%d", got.Name, got.Len())
	}
	for i := range d.Points {
		if !d.Points[i].Equal(got.Points[i]) {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	d := &Dataset{Name: "empty"}
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil || got.Len() != 0 || got.Name != "empty" {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("garbage"),
		[]byte("GNN1"), // truncated after magic
		append([]byte("GNN1"), 0xff, 0xff, 0xff, 0xff), // absurd name length
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewReader(c)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := GenerateUniform("csv", 321, 8)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "csv")
	if err != nil || got.Len() != d.Len() {
		t.Fatalf("CSV round trip: %v, len %d", err, got.Len())
	}
	for i := range d.Points {
		for j := range d.Points[i] {
			if math.Abs(d.Points[i][j]-got.Points[i][j]) > 1e-12 {
				t.Fatalf("point %d differs", i)
			}
		}
	}
}

func TestReadCSVHandlesCommentsAndErrors(t *testing.T) {
	in := "# header\n1,2\n\n3,4\n"
	d, err := ReadCSV(strings.NewReader(in), "x")
	if err != nil || d.Len() != 2 {
		t.Fatalf("comments: %v len %d", err, d.Len())
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n"), "x"); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), "x"); err == nil {
		t.Fatal("non-numeric accepted")
	}
}

// area returns the d-dimensional volume of r (area in 2D).
func area(r geom.Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// containsRect reports whether s lies entirely inside r.
func containsRect(r, s geom.Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

package workload

import (
	"math"
	"testing"

	"gnn/internal/dataset"
	"gnn/internal/geom"
)

func TestGenerateBasic(t *testing.T) {
	ws := dataset.Workspace()
	qs, err := Generate(Spec{N: 16, AreaFraction: 0.08, Queries: 25, Workspace: ws, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 25 {
		t.Fatalf("got %d queries", len(qs))
	}
	wantArea := 0.08 * area(ws)
	for i, q := range qs {
		if len(q.Points) != 16 {
			t.Fatalf("query %d has %d points", i, len(q.Points))
		}
		if !containsRect(ws, q.MBR) {
			t.Fatalf("query %d MBR %v escapes workspace", i, q.MBR)
		}
		if math.Abs(area(q.MBR)-wantArea) > 1e-6*wantArea {
			t.Fatalf("query %d MBR area %v, want %v", i, area(q.MBR), wantArea)
		}
		for _, p := range q.Points {
			if !q.MBR.ContainsPoint(p) {
				t.Fatalf("query %d point %v outside its MBR", i, p)
			}
		}
	}
}

func TestGenerateDefaultsAndDeterminism(t *testing.T) {
	ws := dataset.Workspace()
	a, err := Generate(Spec{N: 4, AreaFraction: 0.02, Workspace: ws, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != DefaultQueries {
		t.Fatalf("default workload size = %d", len(a))
	}
	b, _ := Generate(Spec{N: 4, AreaFraction: 0.02, Workspace: ws, Seed: 7})
	for i := range a {
		for j := range a[i].Points {
			if !a[i].Points[j].Equal(b[i].Points[j]) {
				t.Fatal("same seed produced different workloads")
			}
		}
	}
	c, _ := Generate(Spec{N: 4, AreaFraction: 0.02, Workspace: ws, Seed: 8})
	if a[0].Points[0].Equal(c[0].Points[0]) {
		t.Fatal("different seeds produced identical first point")
	}
}

func TestGenerateValidation(t *testing.T) {
	ws := dataset.Workspace()
	bad := []Spec{
		{N: 0, AreaFraction: 0.1, Workspace: ws},
		{N: 4, AreaFraction: 0, Workspace: ws},
		{N: 4, AreaFraction: 1.5, Workspace: ws},
		{N: 4, AreaFraction: 0.1, Queries: -1, Workspace: ws},
		{N: 4, AreaFraction: 0.1}, // zero workspace
		{N: 4, AreaFraction: 0.1, Workspace: geom.Rect{ // 1-D workspace
			Lo: geom.Point{0}, Hi: geom.Point{1}}},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCenteredRect(t *testing.T) {
	ws := dataset.Workspace()
	for _, frac := range []float64{0.02, 0.08, 0.32, 1.0} {
		r, err := CenteredRect(ws, frac)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(area(r)-frac*area(ws)) > 1e-6*area(ws) {
			t.Fatalf("area %v, want %v", area(r), frac*area(ws))
		}
		if !r.Center().Equal(ws.Center()) {
			t.Fatalf("centre %v, want %v", r.Center(), ws.Center())
		}
	}
	if _, err := CenteredRect(ws, 0); err == nil {
		t.Fatal("zero fraction accepted")
	}
}

func TestOverlapRect(t *testing.T) {
	ws := dataset.Workspace()
	for _, ov := range []float64{0, 0.25, 0.5, 0.75, 1} {
		r, err := OverlapRect(ws, ov)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(area(r)-area(ws)) > 1e-6*area(ws) {
			t.Fatalf("overlap rect area changed: %v", area(r))
		}
		got := overlapArea(ws, r) / area(ws)
		if math.Abs(got-ov) > 1e-9 {
			t.Fatalf("overlap = %v, want %v", got, ov)
		}
	}
	if _, err := OverlapRect(ws, -0.1); err == nil {
		t.Fatal("negative overlap accepted")
	}
	if _, err := OverlapRect(ws, 1.1); err == nil {
		t.Fatal("overlap > 1 accepted")
	}
}

func TestOverlapRectDisjointTouches(t *testing.T) {
	ws := dataset.Workspace()
	r, _ := OverlapRect(ws, 0)
	// At 0% the rectangles share only the corner point.
	if overlapArea(ws, r) != 0 {
		t.Fatal("0%% overlap has positive area")
	}
	if !intersects(ws, r) {
		t.Fatal("0%% overlap should still touch at the corner")
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

// intersects reports whether r and s share at least one point.
func intersects(r, s geom.Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// overlapArea returns the volume of the intersection of r and s, or 0.
func overlapArea(r, s geom.Rect) float64 {
	a := 1.0
	for i := range r.Lo {
		lo, hi := math.Max(r.Lo[i], s.Lo[i]), math.Min(r.Hi[i], s.Hi[i])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

package stats

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// get returns the figure's measurement for (algorithm, x).
func get(f *Figure, algorithm, x string) (Measurement, bool) {
	s := f.findSeries(algorithm)
	if s == nil {
		return Measurement{}, false
	}
	m, ok := s.Points[x]
	return m, ok
}

func TestFigureAddGetRender(t *testing.T) {
	f := NewFigure("Fig X: cost vs n", "n", []string{"4", "16", "64"})
	f.Add("MQM", "4", Measurement{NodeAccesses: 120, CPU: 3 * time.Millisecond, Queries: 100})
	f.Add("MQM", "16", Measurement{NodeAccesses: 47000, CPU: 40 * time.Millisecond, Queries: 100})
	f.Add("MBM", "4", Measurement{NodeAccesses: 35, CPU: time.Millisecond, Queries: 100})
	f.Add("GCP", "64", Measurement{DNF: true})

	if got := f.series; len(got) != 3 || got[0].Name != "MQM" || got[2].Name != "GCP" {
		t.Fatalf("series %d, want MQM, MBM, GCP in insertion order", len(got))
	}
	m, ok := get(f, "MQM", "16")
	if !ok || m.NodeAccesses != 47000 {
		t.Fatalf("get = %+v %v", m, ok)
	}
	if _, ok := get(f, "MQM", "999"); ok {
		t.Fatal("get returned missing cell")
	}
	if _, ok := get(f, "nope", "4"); ok {
		t.Fatal("get returned missing series")
	}

	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig X", "node accesses", "CPU time", "MQM", "47.0k", "DNF", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[float64]string{
		12.34:   "12.3",
		9999:    "9999.0",
		10000:   "10.0k",
		250000:  "250.0k",
		3200000: "3.20M",
	}
	for in, want := range cases {
		if got := formatCount(in); got != want {
			t.Errorf("formatCount(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[time.Duration]string{
		50 * time.Microsecond:   "0.000050",
		30 * time.Millisecond:   "0.0300",
		2500 * time.Millisecond: "2.50",
	}
	for in, want := range cases {
		if got := formatSeconds(in); got != want {
			t.Errorf("formatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

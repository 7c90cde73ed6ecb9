// Package stats collects experiment measurements and renders them as the
// aligned text tables the benchmark harness prints — one table per paper
// figure, with the same series (one row per algorithm, one column per
// x-axis value).
package stats

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Measurement is one (algorithm, x-value) cell of a figure: the averaged
// node accesses and CPU time over a workload, plus bookkeeping.
type Measurement struct {
	NodeAccesses float64 // average per query
	CPU          time.Duration
	Queries      int
	// DNF marks a cell whose algorithm did not terminate within budget
	// (the paper's "GCP does not terminate at all" cells).
	DNF bool
}

// Series is one curve of a figure: an algorithm's measurements across the
// x-axis.
type Series struct {
	Name   string
	Points map[string]Measurement // keyed by x-label
}

// Figure accumulates all series of one experiment.
type Figure struct {
	Title   string
	XLabel  string
	XValues []string // ordered x-axis labels
	series  []*Series
}

// NewFigure creates an empty figure with a fixed x-axis.
func NewFigure(title, xlabel string, xvalues []string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, XValues: xvalues}
}

// Add records a measurement for (algorithm, x).
func (f *Figure) Add(algorithm, x string, m Measurement) {
	s := f.findSeries(algorithm)
	if s == nil {
		s = &Series{Name: algorithm, Points: map[string]Measurement{}}
		f.series = append(f.series, s)
	}
	s.Points[x] = m
}

func (f *Figure) findSeries(name string) *Series {
	for _, s := range f.series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Render writes the figure as two aligned tables (NA and CPU), matching
// the two panels of each figure in the paper.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", f.Title); err != nil {
		return err
	}
	if err := f.renderPanel(w, "node accesses", func(m Measurement) string {
		if m.DNF {
			return "DNF"
		}
		return formatCount(m.NodeAccesses)
	}); err != nil {
		return err
	}
	return f.renderPanel(w, "CPU time (s)", func(m Measurement) string {
		if m.DNF {
			return "DNF"
		}
		return formatSeconds(m.CPU)
	})
}

func (f *Figure) renderPanel(w io.Writer, metric string, cell func(Measurement) string) error {
	header := append([]string{f.XLabel + " \\ " + metric}, f.XValues...)
	rows := [][]string{header}
	for _, s := range f.series {
		row := []string{s.Name}
		for _, x := range f.XValues {
			m, ok := s.Points[x]
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, cell(m))
		}
		rows = append(rows, row)
	}
	return renderTable(w, rows)
}

// renderTable writes rows with columns padded to equal width.
func renderTable(w io.Writer, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, c := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, row := range rows {
		b.Reset()
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		if _, err := fmt.Fprintf(w, "  %s\n", strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// formatCount renders a node-access average compactly (integers below 10k,
// scientific-style above, echoing the paper's log-scale axes).
func formatCount(v float64) string {
	switch {
	case v < 10000:
		return fmt.Sprintf("%.1f", v)
	case v < 1e6:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.2fM", v/1e6)
	}
}

// formatSeconds renders a CPU time in seconds with sub-millisecond
// resolution.
func formatSeconds(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s < 0.001:
		return fmt.Sprintf("%.6f", s)
	case s < 1:
		return fmt.Sprintf("%.4f", s)
	default:
		return fmt.Sprintf("%.2f", s)
	}
}

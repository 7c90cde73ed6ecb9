// Package telemetry is an allocation-free metrics registry with
// Prometheus text-format exposition.
//
// The design splits work between two phases so the hot path never
// allocates or takes a lock:
//
//   - Registration (startup): every metric — and every label
//     combination — is created up front via Registry.Counter /
//     GaugeFunc / Histogram. Registration validates names,
//     renders the exposition label string once, and panics on
//     duplicates or malformed names, so a bad metric fails loudly at
//     boot rather than silently at scrape time.
//   - Recording (hot path): Counter.Inc and Histogram.Observe are
//     single atomic operations on pre-allocated cells. No maps, no
//     interfaces, no allocation — safe to call from the query fast
//     path that must stay at its allocs/op budget. A gauge is read at
//     scrape time from state its owner keeps (GaugeFunc).
//
// Exposition (Registry.WritePrometheus) renders the standard text
// format: one # HELP / # TYPE header per family followed by its
// series. Histograms use power-of-2 microsecond buckets (NumBuckets
// cells, BucketUpperUS bounds) and emit cumulative _bucket{le="..."}
// lines, _sum and _count. Durations are exposed in microseconds —
// integral bucket bounds, no float rounding — and the metric names
// carry the _us suffix so the unit is explicit. Buckets reads the same
// counts back in-process, summed over any set of series, for quantile
// summaries that agree with what a scraper computes.
//
// ParseText (parse.go) is the matching minimal parser; CI round-trips
// every emitted line through it so the exposition can never drift
// from the format Prometheus accepts.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// NumBuckets is the number of histogram buckets. Bucket i covers
// (BucketUpperUS(i-1), BucketUpperUS(i)] microseconds (bucket 0 is
// [0, 1]); the last bucket is the overflow cell, past 2^38 µs (~3
// days).
const NumBuckets = 40

// BucketUpperUS returns the inclusive upper bound, in microseconds, of
// bucket i.
func BucketUpperUS(i int) uint64 {
	if i <= 0 {
		return 1
	}
	return 1 << uint(i)
}

// bucketIndex maps a microsecond value to its bucket.
func bucketIndex(us uint64) int {
	if us <= 1 {
		return 0
	}
	idx := bits.Len64(us - 1) // smallest i with 1<<i >= us
	if idx >= NumBuckets {
		idx = NumBuckets - 1
	}
	return idx
}

// Label is one key="value" exposition label. Labels are fixed at
// registration; there is no hot-path label lookup.
type Label struct {
	Key   string
	Value string
}

// A Counter is a monotonically increasing metric cell.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Histogram is a fixed-bucket power-of-2 microsecond histogram.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sumUS   atomic.Uint64
}

// Observe records one duration in microseconds.
func (h *Histogram) Observe(us uint64) {
	h.buckets[bucketIndex(us)].Add(1)
	h.sumUS.Add(us)
}

// AddTo adds h's bucket counts and sum into b. The read is not atomic
// across buckets, so under concurrent recording a summary is
// approximate, which is all a monitoring read needs.
func (h *Histogram) AddTo(b *Buckets) {
	for i := range h.buckets {
		b.Counts[i] += h.buckets[i].Load()
	}
	b.SumUS += h.sumUS.Load()
}

// Buckets is an in-process read of histogram counts, summed over the
// Histograms added to it (AddTo): the histogram of their union.
type Buckets struct {
	Counts [NumBuckets]uint64
	SumUS  uint64
}

// Total returns the number of observations counted.
func (b *Buckets) Total() uint64 {
	var n uint64
	for _, c := range b.Counts {
		n += c
	}
	return n
}

// MeanUS returns the mean observation in microseconds, 0 when empty.
func (b *Buckets) MeanUS() float64 {
	n := b.Total()
	if n == 0 {
		return 0
	}
	return float64(b.SumUS) / float64(n)
}

// Quantile returns the q-quantile in microseconds as the upper bound of
// the bucket holding rank ⌊q·total⌋ (clamped to the last observation):
// at most a 2× overestimate, monotone in q, and the value a scraper
// reads off the cumulative le buckets. An observation of exactly 2^i µs
// reports 2^i. Returns 0 when empty.
func (b *Buckets) Quantile(q float64) uint64 {
	total := b.Total()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range b.Counts {
		cum += c
		if cum > rank {
			return BucketUpperUS(i)
		}
	}
	return BucketUpperUS(NumBuckets - 1)
}

// metricKind tags a series with its exposition TYPE.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered (name, labels) cell.
type series struct {
	labels  string // pre-rendered {k="v",...} or ""
	counter *Counter
	fn      func() float64
	hist    *Histogram
}

// family groups all series that share a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	order  int
}

// A Registry holds registered metrics and renders them in the
// Prometheus text exposition format. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	seen     map[string]struct{} // name + rendered labels, duplicate guard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		seen:     make(map[string]struct{}),
	}
}

// Counter registers and returns a counter cell for the given name and
// label set. It panics on an invalid name, a kind conflict with an
// existing family, or a duplicate (name, labels) registration.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, labels, &series{counter: c})
	return c
}

// GaugeFunc registers a gauge whose value is collected by calling fn
// at scrape time. Use it for values that are cheap to read but owned
// elsewhere (runtime stats, index depth); fn must be safe for
// concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, labels, &series{fn: fn})
}

// Histogram registers and returns a histogram cell.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.register(name, help, kindHistogram, labels, &series{hist: h})
	return h
}

func (r *Registry) register(name, help string, kind metricKind, labels []Label, s *series) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + s.labels
	if _, dup := r.seen[key]; dup {
		panic(fmt.Sprintf("telemetry: duplicate registration of %s", key))
	}
	r.seen[key] = struct{}{}
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, order: len(r.families)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as both %s and %s", name, f.kind, kind))
	}
	f.series = append(f.series, s)
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelKey(k string) bool {
	if k == "" || k == "le" { // le is reserved for histogram buckets
		return false
	}
	for i, c := range k {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// renderLabels produces the canonical {k="v",...} exposition fragment,
// keys sorted, values escaped. Empty label sets render as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label key %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// mergeLabels appends extra labels (e.g. le) to a pre-rendered label
// fragment.
func mergeLabels(rendered, key, value string) string {
	if rendered == "" {
		return "{" + key + `="` + value + `"}`
	}
	return rendered[:len(rendered)-1] + "," + key + `="` + value + `"}`
}

// WritePrometheus renders every registered family in the text
// exposition format. Families appear in registration order; within a
// family, series appear in registration order. Gauge functions are
// invoked inline, so the output reflects scrape-time state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].order < fams[j].order })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(f.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, s.labels, strconv.FormatUint(s.counter.Value(), 10))
			case kindGaugeFunc:
				writeSample(&b, f.name, s.labels, formatFloat(s.fn()))
			case kindHistogram:
				writeHistogram(&b, f.name, s.labels, s.hist)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	// _count is the cumulative bucket total of the same read, so it can
	// never disagree with the +Inf bucket.
	var read Buckets
	h.AddTo(&read)
	var cum uint64
	for i, c := range read.Counts {
		cum += c
		writeSample(b, name+"_bucket", mergeLabels(labels, "le", strconv.FormatUint(BucketUpperUS(i), 10)), strconv.FormatUint(cum, 10))
	}
	writeSample(b, name+"_bucket", mergeLabels(labels, "le", "+Inf"), strconv.FormatUint(cum, 10))
	writeSample(b, name+"_sum", labels, strconv.FormatUint(read.SumUS, 10))
	writeSample(b, name+"_count", labels, strconv.FormatUint(cum, 10))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// Handler returns an http.Handler serving the exposition, suitable for
// mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

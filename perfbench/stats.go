package main

import (
	"math"
	"slices"
	"time"
)

// percentile is the nearest-rank percentile of xs (p in (0,100]): the
// smallest sample with at least p% of the samples at or below it. It
// returns the value and how many samples lie beyond its rank.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := max(int(math.Ceil(p/100*float64(len(s)))), 1)
	return s[rank-1], len(s) - rank
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// ms and us convert durations for reporting.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies collects the client-observed latencies in ms of the 2xx
// outcomes whose op satisfies keep.
func latencies(ops []op, outs []outcome, keep func(op) bool) []float64 {
	var out []float64
	for i, o := range ops {
		if keep(o) && statusOK(outs[i].status) {
			out = append(out, ms(outs[i].lat))
		}
	}
	return out
}

func isQuery(o op) bool { return o.kind == opQuery }
func isWrite(o op) bool { return o.kind != opQuery }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

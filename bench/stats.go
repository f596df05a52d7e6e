package main

import (
	"math"
	"sort"
)

// Stat is one reported metric: its value (a median when sampled), unit, the
// quartiles of the samples it was taken from, and how many there were.
type Stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quantile interpolates the q-quantile of a sorted vector linearly between
// the order statistics bracketing q·(len−1) — the estimator the engine's
// latency digests use, so harness and program percentiles are comparable.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// summarize returns the median and quartiles of vals without modifying it.
func summarize(vals []float64) (median, q1, q3 float64) {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75)
}

// iqrShare is the inter-quartile spread of a metric as a share of its
// median: the run-to-run noise a change must exceed to be resolved.
func iqrShare(s Stat) float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Value)
}

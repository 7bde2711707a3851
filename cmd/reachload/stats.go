package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the two closest ranks. Latencies are kept as raw
// samples and sorted, so quantiles are exact; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windowed is one timing metric over the equal windows of a run: the
// reported value is the median of the per-window values, and Spread is
// (max − min) / median across them, recorded so a reader can tell a steady
// run from one that drifted.
type windowed struct {
	Median float64   `json:"median"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"windows"`
}

func overWindows(vals []float64) windowed {
	if len(vals) == 0 {
		return windowed{} // a phase in which nothing completed; JSON has no NaN to say so
	}
	w := windowed{Values: vals, Median: median(vals)}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if w.Median != 0 {
		w.Spread = (hi - lo) / w.Median
	}
	return w
}

// windowStats folds one window's latencies (ns) into p50/p99 in µs.
func windowStats(ns []float64) (p50us, p99us float64) {
	sort.Float64s(ns)
	return quantile(ns, 0.50) / 1e3, quantile(ns, 0.99) / 1e3
}

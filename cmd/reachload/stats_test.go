package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestQuantileAgainstSortedSlice checks quantile against the exact order
// statistics of a sorted sample: at ranks that fall on an element it must
// return that element, between two it must lie between them.
func TestQuantileAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 100, 1001} {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.ExpFloat64() * 100
		}
		sort.Float64s(s)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			got := quantile(s, q)
			pos := q * float64(n-1)
			lo, hi := s[int(math.Floor(pos))], s[int(math.Ceil(pos))]
			if got < lo || got > hi {
				t.Errorf("n=%d q=%v: %v outside [%v, %v]", n, q, got, lo, hi)
			}
			if pos == math.Floor(pos) && got != lo {
				t.Errorf("n=%d q=%v: %v, want the element %v", n, q, got, lo)
			}
		}
	}
	if got := quantile([]float64{10, 20}, 0.5); got != 15 {
		t.Errorf("midpoint of two = %v, want 15", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

func TestWindowMedianAndSpread(t *testing.T) {
	w := overWindows([]float64{10, 12, 11, 13, 9})
	if w.Median != 11 {
		t.Errorf("median = %v, want 11", w.Median)
	}
	if want := (13.0 - 9.0) / 11.0; math.Abs(w.Spread-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", w.Spread, want)
	}
	if w := overWindows([]float64{7, 7, 7, 7, 7}); w.Median != 7 || w.Spread != 0 {
		t.Errorf("flat windows: %+v", w)
	}
}

// TestMergeWindows feeds two workers' tallies with known contents and
// checks the per-window throughput, the quantiles' units, and that failed
// units and warm-up count as attempted but yield neither throughput nor a
// sample.
func TestMergeWindows(t *testing.T) {
	winLen := 2 * time.Second
	tallies := make([]tally, 2)
	for w := 0; w < windows; w++ {
		for k := 0; k < 10*(w+1); k++ {
			tallies[k%2].record(warmWindows+w, 1, 0, time.Duration(w+1)*time.Millisecond)
		}
	}
	tallies[0].record(warmWindows, 1, 1, time.Hour)         // a failed operation
	tallies[1].record(warmWindows+windows, 1, 0, time.Hour) // completed after the end
	tallies[1].record(0, 1, 0, time.Hour)                   // warm-up: counted, not timed
	p := merge(tallies, winLen)
	for w, got := range p.OpsPerS.Values {
		if want := float64(10*(w+1)) / 2; got != want {
			t.Errorf("window %d: %v ops/s, want %v", w, got, want)
		}
		if got, want := p.P50us.Values[w], float64(1000*(w+1)); got != want {
			t.Errorf("window %d: p50 %v us, want %v", w, got, want)
		}
	}
	if p.OpsPerS.Median != 15 || p.P99us.Median != 3000 {
		t.Errorf("medians: ops %v (want 15), p99 %v (want 3000)", p.OpsPerS.Median, p.P99us.Median)
	}
	if p.Attempted != 153 || p.Failed != 1 || p.Samples != 150 {
		t.Errorf("attempted %d failed %d samples %d, want 153 1 150", p.Attempted, p.Failed, p.Samples)
	}
}

// TestMergeSkipsEmptyWindows: a window in which nothing completed (one
// request stalled through all of it) counts as 0 op/s and contributes no
// latency, and a phase in which nothing completed at all still has a
// result JSON can carry.
func TestMergeSkipsEmptyWindows(t *testing.T) {
	var tl tally
	for _, w := range []int{0, 1, 3, 4} {
		tl.record(warmWindows+w, 1, 0, time.Millisecond)
	}
	p := merge([]tally{tl}, time.Second)
	if got := p.OpsPerS.Values; len(got) != windows || got[2] != 0 {
		t.Errorf("ops windows %v, want five with a 0 in the middle", got)
	}
	if got := p.P50us.Values; len(got) != 4 || p.P50us.Median != 1000 {
		t.Errorf("p50 windows %v median %v, want four of 1000 us", got, p.P50us.Median)
	}
	for _, ph := range []phase{p, merge([]tally{{}}, time.Second)} {
		if _, err := json.Marshal(ph); err != nil {
			t.Errorf("phase does not marshal: %v", err)
		}
	}
}

// TestMedianSpreadMatchesPython pins medianSpread to the values Python's
// statistics.quantiles(v, n=4) gives, since that is what the driver uses.
func TestMedianSpreadMatchesPython(t *testing.T) {
	v := []float64{12, 7, 3, 9, 15, 21, 4, 8, 10, 11}
	// statistics.quantiles(v, n=4) == [6.25, 9.5, 12.75]
	med, spread := medianSpread(v)
	if med != 9.5 || math.Abs(spread-(12.75-6.25)/9.5) > 1e-12 {
		t.Errorf("median %v spread %v, want 9.5 and %v", med, spread, (12.75-6.25)/9.5)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if med, spread := medianSpread([]float64{1, 2}); med != 1.5 || spread != 1 {
		t.Errorf("two values: median %v spread %v, want 1.5 and 1", med, spread)
	}
}

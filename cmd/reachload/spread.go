package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spread is the back half of benchmark/aa.sh: given the result directories
// of two sets of runs of the same code, it prints, per workload and
// end-to-end metric, each set's median and spread, how far the second
// median is worse than the first, and the bound, and fails if the
// benchmark would not accept its own A/A: a spread (setup_s excepted)
// above the metric's bound, a second median worse than the first by more
// than the bound, or any failed operation.
func spread(dirA, dirB string) bool {
	a, okA := loadResults(dirA)
	b, okB := loadResults(dirB)
	ok := okA && okB
	fmt.Printf("%-16s %-24s %14s %8s %14s %8s %8s %6s\n",
		"workload", "metric", "median A", "iqr/med", "median B", "iqr/med", "B worse", "bound")
	for _, w := range workloadList {
		for _, m := range endToEnd {
			va, vb := a[w.name][m.name], b[w.name][m.name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Printf("%-16s %-24s needs at least 2 runs a side, has %d and %d\n", w.name, m.name, len(va), len(vb))
				ok = false
				continue
			}
			ma, sa := medianSpread(va)
			mb, sb := medianSpread(vb)
			worse := (mb - ma) / ma
			if m.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.bound || (m.name != "setup_s" && math.Max(sa, sb) > m.bound) {
				verdict = "  FAIL"
				ok = false
			}
			fmt.Printf("%-16s %-24s %14.4f %8.4f %14.4f %8.4f %+8.4f %6.3f%s\n",
				w.name, m.name, ma, sa, mb, sb, worse, m.bound, verdict)
		}
	}
	return ok
}

// loadResults reads every untraced result file under dir into
// workload → metric → values, and reports whether all of them were correct.
func loadResults(dir string) (map[string]map[string][]float64, bool) {
	out := make(map[string]map[string][]float64)
	ok := true
	files, _ := filepath.Glob(filepath.Join(dir, "results", "*-trace0.json"))
	sort.Strings(files)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		var rep report
		if err == nil {
			err = json.Unmarshal(raw, &rep)
		}
		if err != nil {
			fmt.Printf("%s: %v\n", f, err)
			ok = false
			continue
		}
		if !rep.Correct {
			fmt.Printf("%s: %d of %d operations failed: %v\n", f, rep.Failed, rep.Attempted, rep.Faults)
			ok = false
		}
		if rep.Host.CalibDrift {
			fmt.Printf("%s: calibration drifted during the run (%.0f -> %.0f ns)\n", f, rep.Host.CalibNs, rep.Host.CalibEndNs)
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = make(map[string][]float64)
		}
		for name, v := range rep.EndToEnd {
			out[rep.Workload][name] = append(out[rep.Workload][name], v)
		}
	}
	return out, ok
}

// medianSpread returns the median of vals and the distance between their
// first and third quartiles as a share of it. The quartiles are those of
// Python's statistics.quantiles(vals, n=4): the driver computes them so.
func medianSpread(vals []float64) (med, spread float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quartile := func(i int) float64 { // the "exclusive" method, clamped as Python clamps it
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med = quantile(s, 0.5)
	if med == 0 {
		return 0, 0
	}
	return med, (quartile(3) - quartile(1)) / med
}

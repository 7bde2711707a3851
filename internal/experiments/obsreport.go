package experiments

import (
	"fmt"
	"io"

	reach "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// E12 — the observability layer applied to the paper's §3.3/§5 claims:
// for each partial index, a mixed positive/negative workload is driven
// through an instrumented wrapper and the recorded probe-level signals
// are reported — TryReach decided-rate (the index's pruning power),
// guided-traversal fallback counts with visited-vertex totals (the work
// the index failed to avoid), and latency percentiles. A second table
// breaks one build into its named phases, turning the "LCR construction
// is far costlier" style of claim into per-phase numbers.
func E12(w io.Writer, sc Scale, seed int64) {
	n := sc.n(5000)
	g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: seed})
	qs := gen.QueriesWithRatio(g, 2000, 0.5, seed+1)

	t := NewTable("E12 — probe-level instrumentation of partial indexes (§3.3/§5)",
		"index", "queries", "pos", "neg", "decided", "fallback", "visited/fb", "p50", "p99")
	kinds := []struct {
		k   reach.Kind
		opt reach.Options
	}{
		{reach.KindGRAIL, reach.Options{K: 3, Seed: seed}},
		{reach.KindFerrari, reach.Options{K: 3}},
		{reach.KindIP, reach.Options{K: 8, Seed: seed}},
		{reach.KindBFL, reach.Options{Bits: 256, Seed: seed}},
	}
	for _, kc := range kinds {
		raw, err := reach.Build(kc.k, g, kc.opt)
		if err != nil {
			continue
		}
		var m obs.IndexMetrics
		ix := core.Instrument(raw, g, &m)
		for _, q := range qs {
			ix.Reach(q.S, q.T)
		}
		s := m.Snapshot()
		perFB := "-"
		if s.Fallback > 0 {
			perFB = fmt.Sprintf("%.0f", float64(s.Visited)/float64(s.Fallback))
		}
		t.Row(raw.Name(), s.Queries, s.Positive, s.Negative,
			fmt.Sprintf("%.1f%%", 100*s.DecidedRate()), s.Fallback, perFB,
			s.Latency.P50, s.Latency.P99)
	}
	t.Write(w)

	var spans obs.Spans
	if _, err := reach.Build(reach.KindBFL, g, reach.Options{Bits: 256, Seed: seed, Spans: &spans}); err == nil {
		bt := NewTable("E12 — BFL build-phase spans", "phase", "depth", "duration")
		for _, sp := range spans.Snapshot() {
			bt.Row(sp.Name, sp.Depth, sp.Dur)
		}
		bt.Write(w)
	}
}

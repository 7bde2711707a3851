package advise

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/traversal"
	"repro/internal/workload"
)

// Measurement is one engine's replayed cost on the scorable trace:
// per-query latency percentiles plus the mismatch count against the
// captured outcomes.
type Measurement struct {
	Queries    int   `json:"queries"`
	Mismatches int   `json:"mismatches"`
	P50NS      int64 `json:"p50_ns"`
	P99NS      int64 `json:"p99_ns"`
}

// measurePlain replays the plain pairs against ix. Each record's latency
// sample is the mean of reps back-to-back probes — index probes run in
// tens of nanoseconds, below the clock's useful resolution for a single
// call, and the advisor compares p99s across candidates, so per-sample
// noise must stay well under the real differences.
func measurePlain(ix core.Index, pairs []workload.Record, reps int) Measurement {
	if reps <= 0 {
		reps = 1
	}
	m := Measurement{Queries: len(pairs)}
	lat := make([]int64, 0, len(pairs))
	for i := range pairs {
		rec := &pairs[i]
		s, t := graph.V(rec.S), graph.V(rec.T)
		start := time.Now()
		res := false
		for r := 0; r < reps; r++ {
			res = ix.Reach(s, t)
		}
		lat = append(lat, time.Since(start).Nanoseconds()/int64(reps))
		if res != rec.Outcome {
			m.Mismatches++
		}
	}
	m.P50NS, m.P99NS = percentiles(lat)
	return m
}

// measureBaseline replays the pairs index-free: one BFS per query, the
// cost of serving the trace with no index at all.
func measureBaseline(g *graph.Digraph, pairs []workload.Record, reps int) Measurement {
	return measurePlain(bfsIndex{g}, pairs, reps)
}

type bfsIndex struct{ g *graph.Digraph }

func (b bfsIndex) Name() string            { return "none" }
func (b bfsIndex) Reach(s, t graph.V) bool { return traversal.BFS(b.g, s, t) }
func (b bfsIndex) Stats() (st core.Stats)  { return st }

// evaluate builds and measures every candidate, then fills the report's
// chosen/best/regret fields. Build failures and timeouts mark the
// candidate infeasible instead of failing the run; a panic inside a
// build is contained by the builder (core.Recover in BuildCtx) and
// arrives here as an error.
func evaluate(ctx context.Context, rep *Report, shortlist []Candidate, pairs []workload.Record, cfg Config) {
	for i := range shortlist {
		cand := &shortlist[i]
		bctx, cancel := context.WithTimeout(ctx, cfg.BuildTimeout)
		start := time.Now()
		ix, err := cfg.Build(bctx, cand.Kind)
		cand.BuildNS = time.Since(start).Nanoseconds()
		cancel()
		if err != nil {
			cand.Error = err.Error()
			continue
		}
		cand.Feasible = true
		if b, ok := core.SizesOf(ix); ok {
			cand.Bytes = b.Total()
		} else {
			cand.Bytes = ix.Stats().Bytes
		}
		cand.OverBudget = cfg.Budget > 0 && int64(cand.Bytes) > cfg.Budget
		cand.Measurement = measurePlain(ix, pairs, replayReps)
	}
	rep.Candidates = shortlist

	// Choose: lowest p99 among feasible in-budget candidates; if nothing
	// fits the budget, fall back to the feasible field. Near-ties (within
	// 10% of the front-runner's p99) break toward the smaller footprint.
	choose := func(requireBudget bool) int {
		best := -1
		for i := range shortlist {
			c := &shortlist[i]
			if !c.Feasible || (requireBudget && c.OverBudget) {
				continue
			}
			if best < 0 || c.P99NS < shortlist[best].P99NS {
				best = i
			}
		}
		if best < 0 {
			return best
		}
		pick := best
		for i := range shortlist {
			c := &shortlist[i]
			if i == best || !c.Feasible || (requireBudget && c.OverBudget) {
				continue
			}
			nearTie := float64(c.P99NS) <= 1.10*float64(shortlist[best].P99NS)
			if nearTie && c.Bytes < shortlist[pick].Bytes {
				pick = i
			}
		}
		return pick
	}
	chosen := choose(true)
	if chosen < 0 {
		chosen = choose(false)
	}
	if chosen >= 0 {
		rep.Chosen = shortlist[chosen].Kind
		rep.ChosenP50NS = shortlist[chosen].P50NS
		rep.ChosenP99NS = shortlist[chosen].P99NS
	}

	// Best is the raw p99 argmin over everything measured, budget or not:
	// the regret denominator.
	for i := range shortlist {
		c := &shortlist[i]
		if !c.Feasible {
			continue
		}
		if rep.Best == "" || c.P99NS < rep.BestP99NS {
			rep.Best = c.Kind
			rep.BestP99NS = c.P99NS
		}
	}
	if rep.BestP99NS > 0 {
		rep.Regret = float64(rep.ChosenP99NS) / float64(rep.BestP99NS)
	}
}

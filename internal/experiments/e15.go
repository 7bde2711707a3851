package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	reach "repro"
	"repro/internal/advise"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/survey"
)

// E15 — advisor regret: how close the advisor's rule-table shortlist gets
// to the best replayed p99 a broad candidate field achieves on the same
// trace. Two graph shapes with opposite winning regimes: a scale-free
// graph (heavy degree tail — label kinds win) and a banded DAG (deep
// backbone — interval and order kinds win). Regret is chosen p99 ÷ best
// p99; 1.0 means the shortlist found the optimum.
func E15(w io.Writer, sc Scale, seed int64) {
	broad := []string{
		string(reach.KindBFL), string(reach.KindPLL), string(reach.KindDL), string(reach.KindTOL),
		string(reach.KindGRAIL), string(reach.KindFerrari), string(reach.KindIP), string(reach.KindPReaCH),
		string(reach.KindFeline), string(survey.KindOReach), string(survey.KindDBL),
	}
	n := sc.n(4000)
	shapes := []struct {
		name string
		g    *reach.Graph
	}{
		{"scalefree", gen.ScaleFree(n, 4, seed+21)},
		{"banded", gen.BandedDAG(gen.Config{N: n, M: 4 * n, Seed: seed + 22}, 64)},
	}
	t := NewTable(fmt.Sprintf("E15 — advisor regret: shortlist pick vs best of %d kinds (§5)", len(broad)),
		"shape", "n", "m", "records", "chosen", "chosen p99", "best", "best p99", "BFS p99", "regret")
	for _, sh := range shapes {
		qs := gen.Queries(sh.g, 600, seed+23)
		recs := make([]reach.WorkloadRecord, len(qs))
		for i, q := range qs {
			recs[i] = reach.WorkloadRecord{S: uint32(q.S), T: uint32(q.T), Route: "plain", Outcome: q.Want}
		}
		opt := reach.Options{Seed: seed, Prepared: reach.Prepare(sh.g)}
		chosen := mustAdvise(sh.g, recs, nil, opt)
		best := mustAdvise(sh.g, recs, broad, opt)
		// The broad sweep's argmin is the bar; if the shortlist run itself
		// measured something faster, the bar moves, so regret is never < 1.
		bestKind, bestP99 := best.Best, best.BestP99NS
		if chosen.BestP99NS > 0 && chosen.BestP99NS < bestP99 {
			bestKind, bestP99 = chosen.Best, chosen.BestP99NS
		}
		// The same kind twice is zero regret by definition: the two p99s
		// are independent measurements of one index and differ by timer
		// noise only.
		regret := 1.0
		if chosen.Chosen != bestKind && bestP99 > 0 && chosen.ChosenP99NS > bestP99 {
			regret = float64(chosen.ChosenP99NS) / float64(bestP99)
		}
		t.Row(sh.name, sh.g.N(), sh.g.M(), len(recs), chosen.Chosen, time.Duration(chosen.ChosenP99NS),
			bestKind, time.Duration(bestP99), time.Duration(chosen.Baseline.P99NS), fmt.Sprintf("%.2fx", regret))
	}
	t.Write(w)
}

// mustAdvise runs the advisor over candidates (the rule table's shortlist
// when nil), every candidate built with opt.
func mustAdvise(g *reach.Graph, recs []reach.WorkloadRecord, candidates []string, opt reach.Options) *advise.Report {
	rep, err := advise.Run(context.Background(), opt.Prepared, recs, advise.Config{
		Build: func(ctx context.Context, kind string) (core.Index, error) {
			return reach.BuildCtx(ctx, reach.Kind(kind), g, opt)
		},
		Candidates: candidates,
	})
	if err != nil {
		panic(err)
	}
	return rep
}

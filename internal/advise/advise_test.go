package advise_test

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	reach "repro"
	"repro/internal/advise"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

func buildFunc(g *graph.Digraph, prep *core.Prepared) advise.BuildFunc {
	return func(ctx context.Context, kind string) (core.Index, error) {
		return reach.BuildCtx(ctx, reach.Kind(kind), g, reach.Options{Prepared: prep})
	}
}

// trace synthesizes a plain workload with BFS ground truth.
func trace(g *graph.Digraph, n int, seed int64) []workload.Record {
	qs := gen.Queries(g, n, seed)
	recs := make([]workload.Record, len(qs))
	for i, q := range qs {
		recs[i] = workload.Record{S: uint32(q.S), T: uint32(q.T), Route: "plain", Outcome: q.Want}
	}
	return recs
}

func TestProfileGraphFig1(t *testing.T) {
	g := graph.Fig1Plain()
	p := advise.ProfileGraph(core.NewPrepared(g))
	// Figure 1(a): 9 vertices, 12 edges, acyclic — the condensation is
	// the graph itself and the longest path (A,L,C,H,G,B) spans 6 levels.
	if p.N != 9 || p.M != 12 {
		t.Fatalf("fig1 n/m = %d/%d, want 9/12", p.N, p.M)
	}
	if p.SCCs != 9 || p.LargestSCC != 1 || p.CyclicMass != 0 {
		t.Fatalf("fig1 profiled cyclic: %+v", p)
	}
	if p.Depth != 6 || p.Width < 1 || p.Width > p.N {
		t.Fatalf("fig1 layering depth=%d width=%d, want depth 6", p.Depth, p.Width)
	}
	if p.OutDegree.Max != 3 {
		t.Fatalf("fig1 max out-degree = %d, want 3", p.OutDegree.Max)
	}
}

func TestProfileGraphShapes(t *testing.T) {
	// BandedDAG: acyclic with a backbone — condensation is the graph
	// itself and the layering is the full backbone depth.
	bg := gen.BandedDAG(gen.Config{N: 400, M: 1600, Seed: 3}, 16)
	bp := advise.ProfileGraph(core.NewPrepared(bg))
	if bp.SCCs != bp.N || bp.CyclicMass != 0 || bp.LargestSCC != 1 {
		t.Fatalf("banded DAG profiled cyclic: %+v", bp)
	}
	if bp.Depth != bp.N {
		t.Fatalf("banded backbone depth = %d, want %d (total order)", bp.Depth, bp.N)
	}
	if bp.Width != 1 {
		t.Fatalf("banded backbone width = %d, want 1", bp.Width)
	}

	// Dense ErdosRenyi: cyclic, so the condensation must shrink and the
	// cyclic mass must be visible.
	cg := gen.ErdosRenyi(gen.Config{N: 300, M: 3000, Seed: 7})
	cp := advise.ProfileGraph(core.NewPrepared(cg))
	if cp.SCCs >= cp.N {
		t.Fatalf("dense cyclic graph has no non-trivial SCC: %+v", cp)
	}
	if cp.CyclicMass <= 0 || cp.LargestSCC < 2 {
		t.Fatalf("cyclic mass not detected: %+v", cp)
	}

	// Deep-narrow vs shallow-wide layering.
	deep := advise.ProfileGraph(core.NewPrepared(gen.LayeredDAG(50, 4, 2, 5)))
	wide := advise.ProfileGraph(core.NewPrepared(gen.LayeredDAG(4, 50, 2, 5)))
	if deep.Depth != 50 || wide.Depth != 4 {
		t.Fatalf("layered depth = %d/%d, want 50/4", deep.Depth, wide.Depth)
	}
	// Longest-path layering can park unreached vertices on level 0, so
	// compare shape ratios rather than nominal layer widths.
	if deep.Width >= deep.Depth || wide.Width <= wide.Depth {
		t.Fatalf("layered width = %d/%d (depth %d/%d)", deep.Width, wide.Width, deep.Depth, wide.Depth)
	}
}

func TestProfileWorkload(t *testing.T) {
	recs := []workload.Record{
		{S: 0, T: 1, Route: "plain", Outcome: true},
		{S: 0, T: 2, Route: "plain", Outcome: false},
		{S: 0, T: 3, Route: "plain", Outcome: false, Cached: true},
		{S: 1, T: 2, Route: "lcr", Labels: []uint16{0}},
		{S: 9999, T: 1, Route: "plain"}, // out of range for n=100
	}
	p := advise.ProfileWorkload(recs, 100)
	if p.Records != 5 || p.Plain != 3 {
		t.Fatalf("records=%d plain=%d, want 5/3", p.Records, p.Plain)
	}
	if p.LabelShare != 0.2 || p.CachedShare != 0.2 {
		t.Fatalf("label share %v cached share %v, want 0.2/0.2", p.LabelShare, p.CachedShare)
	}
	if p.PositiveShare != 1.0/3 {
		t.Fatalf("positive share = %v, want 1/3", p.PositiveShare)
	}
	// Source 0 appears 3 times among 3 counted plain records → locality 2/3.
	if want := 2.0 / 3; math.Abs(p.SourceLocality-want) > 1e-9 {
		t.Fatalf("source locality = %v, want %v", p.SourceLocality, want)
	}

	pairs := advise.PlainPairs(recs, 100, 0)
	if len(pairs) != 2 {
		t.Fatalf("PlainPairs kept %d records, want 2 (skips cached, labeled, out-of-range)", len(pairs))
	}
	for _, rec := range pairs {
		if rec.Cached || len(rec.Labels) > 0 {
			t.Fatalf("PlainPairs kept unscorable record %+v", rec)
		}
	}
}

func TestShortlistRegimes(t *testing.T) {
	contains := func(cs []advise.Candidate, kind string) bool {
		for _, c := range cs {
			if c.Kind == kind {
				return true
			}
		}
		return false
	}

	// Scale-free: heavy in-degree tail → degree-ordered 2-hop must be listed.
	sf := advise.ProfileGraph(core.NewPrepared(gen.ScaleFree(6000, 4, 1)))
	sl := advise.Shortlist(sf, advise.WorkloadProfile{}, 6)
	if !contains(sl, "pll") {
		t.Fatalf("scale-free shortlist misses pll: %+v", sl)
	}
	if !contains(sl, "bfl") {
		t.Fatalf("shortlist misses the bfl default: %+v", sl)
	}

	// Deep-narrow backbone chain → interval kinds.
	deep := advise.ProfileGraph(core.NewPrepared(gen.BandedDAG(gen.Config{N: 8000, M: 32000, Seed: 5}, 16)))
	sl = advise.Shortlist(deep, advise.WorkloadProfile{}, 6)
	if !contains(sl, "grail") && !contains(sl, "ferrari") {
		t.Fatalf("deep-narrow shortlist misses interval kinds: %+v", sl)
	}

	// Negative-heavy workload → a negative-cut kind.
	wp := advise.WorkloadProfile{Plain: 100, PositiveShare: 0.1}
	sl = advise.Shortlist(deep, wp, 8)
	if !contains(sl, "ip") && !contains(sl, "preach") {
		t.Fatalf("negative-heavy shortlist misses ip/preach: %+v", sl)
	}

	// The quadratic constructions must never be nominated.
	for _, banned := range []string{"2hop", "3hop", "pathhop"} {
		if contains(sl, banned) {
			t.Fatalf("shortlist nominated quadratic kind %s", banned)
		}
	}

	// Cap respected.
	if got := advise.Shortlist(sf, wp, 3); len(got) > 3 {
		t.Fatalf("shortlist ignored cap: %d candidates", len(got))
	}
}

// TestShortlistGatesPLLBySize: a 10⁶-vertex profile in every regime that
// nominates PLL or DL gets neither (their build cannot finish in the
// build box there), a small one still gets PLL, and every kind the rules
// nominate is one Table 1 marks as serving.
func TestShortlistGatesPLLBySize(t *testing.T) {
	heavy := gen.DegreeStats{Skew: 50}
	big := advise.GraphProfile{N: 1_000_000, M: 4_000_000, SCCs: 1_000_000, InDegree: heavy, OutDegree: heavy, Depth: 10, Width: 1000}
	small := big
	small.N, small.M, small.SCCs = 2000, 8000, 2000
	for _, c := range advise.Shortlist(big, advise.WorkloadProfile{}, 100) {
		if c.Kind == "pll" || c.Kind == "dl" {
			t.Errorf("10⁶-vertex shortlist nominates %s: %s", c.Kind, c.Reason)
		}
	}
	var pll bool
	for _, wp := range []advise.WorkloadProfile{{}, {Plain: 100, PositiveShare: 0.1}} {
		for _, gp := range []advise.GraphProfile{big, small} {
			for _, c := range advise.Shortlist(gp, wp, 100) {
				pll = pll || (gp.N == small.N && c.Kind == "pll")
				if row, ok := core.Plain(c.Kind); !ok || !row.Serves {
					t.Errorf("shortlist nominates %s, which is not a serving kind", c.Kind)
				}
			}
		}
	}
	if !pll {
		t.Error("a 2000-vertex shortlist misses pll")
	}
}

func TestRunEndToEnd(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 1500, M: 6000, Seed: 21})
	prep := core.NewPrepared(g)
	recs := trace(g, 300, 22)
	rep, err := advise.Run(context.Background(), prep, recs, advise.Config{
		Build: buildFunc(g, prep),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Chosen == "" {
		t.Fatalf("no kind chosen: %+v", rep.Candidates)
	}
	found := false
	for _, c := range rep.Candidates {
		if c.Kind == rep.Chosen {
			found = true
			if !c.Feasible {
				t.Fatalf("chosen candidate %q infeasible", c.Kind)
			}
			if c.Mismatches != 0 {
				t.Fatalf("chosen candidate %q mismatched %d replayed outcomes", c.Kind, c.Mismatches)
			}
		}
	}
	if !found {
		t.Fatalf("chosen %q not among candidates", rep.Chosen)
	}
	if rep.Regret < 1 {
		t.Fatalf("regret %v < 1 (chosen beats best?)", rep.Regret)
	}
	if rep.Baseline.P99NS <= 0 || rep.Baseline.Queries != len(recs) {
		t.Fatalf("baseline not measured: %+v", rep.Baseline)
	}
	// Every index probe must beat a full BFS at p99 on a 1500-vertex DAG.
	if rep.ChosenP99NS > rep.Baseline.P99NS {
		t.Fatalf("chosen p99 %d slower than index-free baseline %d", rep.ChosenP99NS, rep.Baseline.P99NS)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not JSON-marshalable: %v", err)
	}
}

// TestRunBudgetAndKeep: a budget nothing fits still keeps every candidate
// in the report, measured on the whole trace, and the pick falls back to
// the feasible field.
func TestRunBudgetAndKeep(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 800, M: 3200, Seed: 5})
	prep := core.NewPrepared(g)
	recs := trace(g, 200, 6)

	rep, err := advise.Run(context.Background(), prep, recs, advise.Config{
		Build:  buildFunc(g, prep),
		Budget: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	chosen := false
	for _, c := range rep.Candidates {
		if c.Feasible && !c.OverBudget {
			t.Fatalf("candidate %q within a 1-byte budget (bytes=%d)", c.Kind, c.Bytes)
		}
		if c.Feasible && (c.Queries != len(recs) || c.Mismatches != 0) {
			t.Fatalf("over-budget candidate %q not measured on the whole trace: %+v", c.Kind, c.Measurement)
		}
		chosen = chosen || (c.Feasible && c.Kind == rep.Chosen && c.P99NS == rep.ChosenP99NS)
	}
	if !chosen {
		t.Fatalf("budget fallback chose %q, not a measured feasible candidate", rep.Chosen)
	}
}

func TestRunExplicitCandidatesAndErrors(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 400, M: 1200, Seed: 9})
	prep := core.NewPrepared(g)
	recs := trace(g, 100, 10)

	rep, err := advise.Run(context.Background(), prep, recs, advise.Config{
		Build:      buildFunc(g, prep),
		Candidates: []string{"pll", "definitely-not-a-kind"},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Chosen != "pll" {
		t.Fatalf("chosen %q, want pll (the only buildable candidate)", rep.Chosen)
	}
	var bad *advise.Candidate
	for i := range rep.Candidates {
		if rep.Candidates[i].Kind == "definitely-not-a-kind" {
			bad = &rep.Candidates[i]
		}
	}
	if bad == nil || bad.Feasible || bad.Error == "" {
		t.Fatalf("unknown kind not reported infeasible: %+v", bad)
	}

	// No scorable records → ErrNoTrace.
	cached := []workload.Record{{S: 0, T: 1, Route: "plain", Cached: true}}
	if _, err := advise.Run(context.Background(), prep, cached, advise.Config{Build: buildFunc(g, prep)}); err != advise.ErrNoTrace {
		t.Fatalf("cached-only trace: err = %v, want ErrNoTrace", err)
	}
	// Every candidate infeasible → ErrNoCandidate, report kept for
	// diagnosis.
	rep, err = advise.Run(context.Background(), prep, recs, advise.Config{
		Build:      buildFunc(g, prep),
		Candidates: []string{"definitely-not-a-kind"},
	})
	if err != advise.ErrNoCandidate {
		t.Fatalf("all-infeasible: err = %v, want ErrNoCandidate", err)
	}
	if rep == nil || len(rep.Candidates) != 1 || rep.Candidates[0].Error == "" {
		t.Fatalf("all-infeasible report not diagnosable: %+v", rep)
	}
	// Missing builder is a config error.
	if _, err := advise.Run(context.Background(), prep, recs, advise.Config{}); err == nil {
		t.Fatal("nil Build accepted")
	}
}

func TestReplaySummary(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 500, M: 2000, Seed: 13})
	db, err := reach.NewDB(g, reach.DBConfig{})
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	recs := trace(g, 120, 14)
	recs = append(recs, workload.Record{S: 100000, T: 0, Route: "plain"}) // out of range
	sum := advise.Replay(db, recs)
	if sum.Records != len(recs) {
		t.Fatalf("records = %d, want %d", sum.Records, len(recs))
	}
	if len(sum.Routes) != 1 || sum.Routes[0].Route != "plain" {
		t.Fatalf("routes = %+v", sum.Routes)
	}
	rt := sum.Routes[0]
	if rt.Queries != len(recs) || rt.Errors != 1 || rt.Mismatches != 0 {
		t.Fatalf("route agg = %+v", rt)
	}
	if sum.Decided != len(recs)-1 {
		t.Fatalf("decided = %d, want %d", sum.Decided, len(recs)-1)
	}
	if rt.P99NS < rt.P50NS || rt.P50NS < 0 {
		t.Fatalf("percentiles inverted: %+v", rt)
	}
	if rt.ReplayNS <= 0 {
		t.Fatalf("no replay time recorded: %+v", rt)
	}
}

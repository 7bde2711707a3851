package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/labelset"
	"repro/internal/tc"
)

// Meta is the paper's static taxonomy for one technique (the Framework /
// Input / Dynamic columns of Tables 1–2); the measured columns come from
// running the implementation.
type Meta struct {
	Framework string
	Input     string // "DAG" or "General"
	Dynamic   string
}

// Table1Meta mirrors the paper's Table 1 rows for the implemented kinds.
var Table1Meta = map[reach.Kind]Meta{
	reach.KindTreeCover: {"Tree cover", "DAG", "No"},
	reach.KindTreeSSPI:  {"Tree cover", "DAG", "No"},
	reach.KindDualLabel: {"Tree cover", "DAG", "No"},
	reach.KindGRIPP:     {"Tree cover", "General", "No"},
	reach.KindPathTree:  {"Tree cover", "DAG", "No"},
	reach.KindGRAIL:     {"Tree cover", "DAG", "No"},
	reach.KindFerrari:   {"Tree cover", "DAG", "No"},
	reach.KindDAGGER:    {"Tree cover", "DAG", "Yes"},
	reach.KindTwoHop:    {"2-Hop", "General", "No"},
	reach.KindThreeHop:  {"2-Hop", "DAG", "No"},
	reach.KindPathHop:   {"2-Hop", "DAG", "No"},
	reach.KindTFL:       {"2-Hop", "DAG", "No"},
	reach.KindDL:        {"2-Hop", "General", "No"},
	reach.KindPLL:       {"2-Hop", "General", "No"},
	reach.KindTOL:       {"2-Hop", "DAG", "Yes"},
	reach.KindDBL:       {"2-Hop", "General", "Insert-only"},
	reach.KindOReach:    {"2-Hop", "DAG", "No"},
	reach.KindHL:        {"Hierarchy", "DAG", "No"},
	reach.KindIP:        {"Approximate TC", "DAG", "Partial"},
	reach.KindBFL:       {"Approximate TC", "DAG", "No"},
	reach.KindFeline:    {"Coordinates", "DAG", "No"},
	reach.KindPReaCH:    {"Pruned search", "DAG", "No"},
}

// Table2Meta mirrors the paper's Table 2 rows.
var Table2Meta = map[reach.LCRKind]Meta{
	reach.LCRJinTree:  {"Tree cover", "General", "No"},
	reach.LCRDecomp:   {"Tree cover", "General", "No"},
	reach.LCRZouGTC:   {"GTC", "General", "Yes (rebuild)"},
	reach.LCRLandmark: {"GTC", "General", "No"},
	reach.LCRP2H:      {"2-Hop", "General", "No"},
	reach.LCRDLCR:     {"2-Hop", "General", "Yes"},
	reach.LCRBloom:    {"Approximate GTC (§5 prototype)", "General", "No"},
}

// Table1 builds every plain index on a random DAG and a cyclic digraph of
// the given size and reports, per technique: the paper's taxonomy columns
// plus measured completeness (fraction of sampled queries the index
// decides without traversal), build time, entries, size and mean query
// latency.
func Table1(w io.Writer, n int, seed int64) {
	dag := gen.RandomDAG(gen.Config{N: n, M: 3 * n, Seed: seed})
	queries := gen.Queries(dag, 2000, seed+1)
	t := NewTable(
		fmt.Sprintf("Table 1 — plain reachability indexes (random DAG n=%d m=%d, 2000 queries)", dag.N(), dag.M()),
		"Index", "Framework", "Type(meas.)", "Input", "Dynamic", "Build", "Entries", "Size", "Query")
	for _, k := range reach.Kinds() {
		meta := Table1Meta[k]
		ix, err := reach.Build(k, dag, reach.Options{Seed: seed})
		if err != nil {
			t.Row(k, meta.Framework, "error", meta.Input, meta.Dynamic, err, "-", "-", "-")
			continue
		}
		decided, total := measureCompleteness(ix, queries)
		typ := "Complete"
		if decided < total {
			typ = fmt.Sprintf("Partial (%.0f%%)", 100*float64(decided)/float64(total))
		}
		qt := measureQueryTime(ix, queries)
		st := ix.Stats()
		t.Row(ix.Name(), meta.Framework, typ, meta.Input, meta.Dynamic,
			st.BuildTime, st.Entries, formatBytes(st.Bytes), qt)
	}
	t.Write(w)
}

// measureCompleteness counts how many queries the index answers by pure
// lookup (TryReach decided). Non-partial indexes decide everything.
func measureCompleteness(ix reach.Index, qs []gen.Query) (decided, total int) {
	total = len(qs)
	p, ok := ix.(reach.PartialIndex)
	if !ok {
		return total, total
	}
	for _, q := range qs {
		if _, dec := p.TryReach(q.S, q.T); dec {
			decided++
		}
	}
	return decided, total
}

// timedPasses is how many timed passes measureQueryTime takes the median
// of, after one untimed pass.
const timedPasses = 5

// measureQueryTime returns ix's mean time per query over qs: one untimed
// pass warms caches and pools, then the median of timedPasses timed
// passes, so one slow pass (a GC, a preempted core) does not become the
// figure. Every pass checks every answer and panics on a wrong one. A
// table's build column is still a single build.
func measureQueryTime(ix reach.Index, qs []gen.Query) time.Duration {
	pass := func() time.Duration {
		start := time.Now()
		for _, q := range qs {
			if got := ix.Reach(q.S, q.T); got != q.Want {
				panic(fmt.Sprintf("%s: wrong answer for (%d,%d)", ix.Name(), q.S, q.T))
			}
		}
		return time.Since(start)
	}
	pass()
	times := make([]time.Duration, timedPasses)
	for i := range times {
		times[i] = pass()
	}
	slices.Sort(times)
	return times[timedPasses/2] / time.Duration(len(qs))
}

// Table2 is the LCR/RLC analogue of Table1, on a labeled digraph.
func Table2(w io.Writer, n, labels int, seed int64) {
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: n, M: 3 * n, Seed: seed}), labels, 0.8, seed+1)
	queries := gen.LCRQueries(g, 500, seed+2)
	t := NewTable(
		fmt.Sprintf("Table 2 — path-constrained reachability indexes (labeled ER n=%d m=%d |L|=%d, 500 queries)", g.N(), g.M(), g.Labels()),
		"Index", "Framework", "Constraint", "Input", "Dynamic", "Build", "Entries", "Size", "Query")
	for _, k := range reach.LCRKinds() {
		meta := Table2Meta[k]
		ix, err := reach.BuildLCR(k, g, reach.Options{K: 16})
		if err != nil {
			t.Row(k, meta.Framework, "Alternation", meta.Input, meta.Dynamic, err, "-", "-", "-")
			continue
		}
		start := time.Now()
		for _, q := range queries {
			got := q.S == q.T || ix.ReachLC(q.S, q.T, labelset.Set(q.Allowed))
			if got != (q.Want || q.S == q.T) {
				panic(fmt.Sprintf("%s: wrong LCR answer", ix.Name()))
			}
		}
		qt := time.Since(start) / time.Duration(len(queries))
		st := ix.Stats()
		t.Row(ix.Name(), meta.Framework, "Alternation", meta.Input, meta.Dynamic,
			st.BuildTime, st.Entries, formatBytes(st.Bytes), qt)
	}
	// The RLC row (concatenation).
	rlcIx, err := reach.BuildRLC(g, reach.Options{MaxSeq: 2})
	if err == nil {
		rq := rlcQueries(g, 200, seed+3)
		start := time.Now()
		for _, q := range rq {
			if got := rlcIx.ReachRLC(q.s, q.t, q.seq); got != q.want {
				panic("RLC: wrong answer")
			}
		}
		qt := time.Since(start) / time.Duration(len(rq))
		st := rlcIx.Stats()
		t.Row(rlcIx.Name(), "2-Hop", "Concatenation", "General", "No",
			st.BuildTime, st.Entries, formatBytes(st.Bytes), qt)
	}
	t.Write(w)
}

type rlcQuery struct {
	s, t graphV
	seq  []reach.Label
	want bool
}

type graphV = reach.V

func rlcQueries(g *reach.Graph, cnt int, seed int64) []rlcQuery {
	rng := newRng(seed)
	out := make([]rlcQuery, cnt)
	for i := range out {
		s := reach.V(rng.Intn(g.N()))
		t := reach.V(rng.Intn(g.N()))
		seq := []reach.Label{reach.Label(rng.Intn(g.Labels())), reach.Label(rng.Intn(g.Labels()))}
		out[i] = rlcQuery{s, t, seq, tc.RLCReach(g, s, t, seq, false)}
	}
	return out
}

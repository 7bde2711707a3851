package experiments

import (
	"fmt"
	"slices"
	"time"

	reach "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/labelset"
	"repro/internal/tc"
)

// Table1 builds every plain index on a random DAG of the given size and
// tabulates, per technique: the taxonomy columns of the table of kinds
// plus measured completeness (fraction of sampled queries the index
// decides without traversal), build time, entries, size and mean query
// latency.
func Table1(n int, seed int64) *Table {
	dag := gen.RandomDAG(gen.Config{N: n, M: 3 * n, Seed: seed})
	queries := gen.Queries(dag, 2000, seed+1)
	t := NewTable(
		fmt.Sprintf("Table 1 — plain reachability indexes (random DAG n=%d m=%d, 2000 queries)", dag.N(), dag.M()),
		"Index", "Framework", "Type(meas.)", "Input", "Dynamic", "Build", "Entries", "Size", "Query")
	for _, row := range core.PlainKinds() {
		ix, err := reach.Build(reach.Kind(row.Kind), dag, reach.Options{Seed: seed})
		if err != nil {
			t.Row(row.Kind, row.Framework, "error", row.Input, row.Dynamic, err, "-", "-", "-")
			continue
		}
		decided, total := measureCompleteness(ix, queries)
		typ := "Complete"
		if decided < total {
			typ = fmt.Sprintf("Partial (%.0f%%)", 100*float64(decided)/float64(total))
		}
		qt := measureQueryTime(ix, queries)
		st := ix.Stats()
		t.Row(ix.Name(), row.Framework, typ, row.Input, row.Dynamic,
			st.BuildTime, st.Entries, formatBytes(st.Bytes), qt)
	}
	return t
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

// minPass is the least a pass of measureQueryTime lasts: a pass repeats
// the query list until it does, so a row of 2 000 queries of a few
// nanoseconds is not timed over a few microseconds.
const minPass = 2 * time.Millisecond

// measureQueryTime returns ix's mean time per query over qs. The untimed
// pass warms caches and pools and sizes the timed ones: it repeats the
// query list until it lasts minPass, and every timed pass repeats the list
// as often. The figure is the median of timedPasses timed passes, so one
// slow pass (a GC, a preempted core) does not become it. Every repetition
// checks every answer and panics on a wrong one. A table's build column is
// still a single build.
func measureQueryTime(ix reach.Index, qs []gen.Query) time.Duration {
	reps := 0
	for start := time.Now(); reps == 0 || time.Since(start) < minPass; reps++ {
		queryPass(ix, qs, 1)
	}
	times := make([]time.Duration, timedPasses)
	for i := range times {
		times[i] = queryPass(ix, qs, reps)
	}
	slices.Sort(times)
	return times[timedPasses/2] / time.Duration(reps*len(qs))
}

// queryPass asks ix every query of qs, reps times over, and returns how
// long that took. A wrong answer panics.
func queryPass(ix reach.Index, qs []gen.Query, reps int) time.Duration {
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, q := range qs {
			if got := ix.Reach(q.S, q.T); got != q.Want {
				panic(fmt.Sprintf("%s: wrong answer for (%d,%d)", ix.Name(), q.S, q.T))
			}
		}
	}
	return time.Since(start)
}

// Table2 is the LCR/RLC analogue of Table1, on a labeled digraph.
func Table2(n, labels int, seed int64) *Table {
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: n, M: 3 * n, Seed: seed}), labels, 0.8, seed+1)
	queries := gen.LCRQueries(g, 500, seed+2)
	t := NewTable(
		fmt.Sprintf("Table 2 — path-constrained reachability indexes (labeled ER n=%d m=%d |L|=%d, 500 queries)", g.N(), g.M(), g.Labels()),
		"Index", "Framework", "Constraint", "Input", "Dynamic", "Build", "Entries", "Size", "Query")
	for _, row := range core.LCRKinds {
		ix, err := reach.BuildLCR(reach.LCRKind(row.Kind), g, reach.Options{K: 16})
		if err != nil {
			t.Row(row.Kind, row.Framework, "Alternation", row.Input, row.Dynamic, err, "-", "-", "-")
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
		t.Row(ix.Name(), row.Framework, "Alternation", row.Input, row.Dynamic,
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
	return t
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

package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/labelset"
	"repro/internal/reduction"
	"repro/internal/scc"
	"repro/internal/survey"
	"repro/internal/tc"
	"repro/internal/traversal"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Scale controls experiment sizes so the suite runs both as a quick smoke
// (unit tests, CI) and at full size (cmd/reachbench).
type Scale struct {
	// Factor multiplies the baseline sizes. 1 = quick, 10+ = full runs.
	Factor int
}

func (s Scale) n(base int) int {
	if s.Factor <= 0 {
		s.Factor = 1
	}
	return base * s.Factor
}

// N exposes the scaled size to external drivers (cmd/reachbench).
func (s Scale) N(base int) int { return s.n(base) }

// E1 — §3.1 claim: partial tree-cover indexes (GRAIL, FERRARI) build in
// time linear in the graph and answer queries an order of magnitude
// faster than raw traversal.
func E1(w io.Writer, sc Scale, seed int64) {
	t := NewTable("E1 — partial tree-cover indexes vs online traversal (§3.1)",
		"n", "m", "index", "build", "query", "BFS query", "speedup")
	for _, n := range []int{sc.n(1000), sc.n(5000), sc.n(20000)} {
		g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: seed})
		qs := gen.Queries(g, 500, seed+1)
		bfsTime := measureBFS(g, qs)
		for _, k := range []reach.Kind{reach.KindGRAIL, reach.KindFerrari} {
			ix, _ := reach.Build(k, g, reach.Options{K: 3, Seed: seed})
			qt := measureQueryTime(ix, qs)
			t.Row(n, g.M(), ix.Name(), ix.Stats().BuildTime, qt, bfsTime,
				ratio(bfsTime, qt))
		}
	}
	t.Write(w)
}

func measureBFS(g *reach.Graph, qs []gen.Query) time.Duration {
	start := time.Now()
	for _, q := range qs {
		traversal.BFS(g, q.S, q.T)
	}
	return time.Since(start) / time.Duration(len(qs))
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// E2 — §3.2 claim: pruned 2-hop labelings stay far below the materialized
// TC, and the vertex order matters (degree vs topological).
func E2(w io.Writer, sc Scale, seed int64) {
	t := NewTable("E2 — 2-hop label sizes vs transitive closure (§3.2)",
		"graph", "n", "index", "entries", "TC pairs", "ratio", "build")
	graphs := map[string]*reach.Graph{
		"random-dag": gen.RandomDAG(gen.Config{N: sc.n(2000), M: sc.n(6000), Seed: seed}),
		"scale-free": gen.ScaleFree(sc.n(2000), 3, seed),
	}
	for name, g := range graphs {
		pairs := tc.NewClosure(g).Pairs()
		for _, k := range []reach.Kind{reach.KindPLL, survey.KindTFL, reach.KindTOL, survey.KindHL} {
			ix, _ := reach.Build(k, g, reach.Options{Seed: seed})
			st := ix.Stats()
			t.Row(name, g.N(), ix.Name(), st.Entries, pairs,
				fmt.Sprintf("%.3f", float64(st.Entries)/float64(pairs)), st.BuildTime)
		}
	}
	t.Write(w)
}

// E3 — §3.3 claim: approximate TCs (IP, BFL) never produce false
// negatives, keep the false-positive rate low, and build fast.
func E3(w io.Writer, sc Scale, seed int64) {
	t := NewTable("E3 — approximate TC filters (§3.3)",
		"n", "index", "build", "falseNeg", "lookupFP%", "undecided%")
	for _, n := range []int{sc.n(2000), sc.n(10000), sc.n(50000)} {
		g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: seed})
		qs := gen.Queries(g, 2000, seed+2)
		for _, k := range []reach.Kind{reach.KindIP, reach.KindBFL} {
			ix, _ := reach.Build(k, g, reach.Options{K: 8, Bits: 256, Seed: seed})
			p := ix.(reach.PartialIndex)
			falseNeg, fp, undecided := 0, 0, 0
			for _, q := range qs {
				r, dec := p.TryReach(q.S, q.T)
				if !dec {
					undecided++
					continue
				}
				if q.Want && !r {
					falseNeg++
				}
				if !q.Want && r {
					fp++
				}
			}
			t.Row(n, ix.Name(), ix.Stats().BuildTime, falseNeg,
				pct(fp, len(qs)), pct(undecided, len(qs)))
		}
	}
	t.Write(w)
}

func pct(a, b int) string { return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b)) }

// E4 — §5 claim: real workloads are negative-heavy, and partial indexes
// without false negatives exploit that (negative queries terminate on
// lookups alone).
func E4(w io.Writer, sc Scale, seed int64) {
	n := sc.n(20000)
	g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: seed})
	t := NewTable(fmt.Sprintf("E4 — query-mix sensitivity, n=%d (§5)", n),
		"posRatio", "index", "query", "decidedByLookup")
	for _, pos := range []float64{0.1, 0.5, 0.9} {
		qs := gen.QueriesWithRatio(g, 600, pos, seed+3)
		for _, k := range []reach.Kind{reach.KindGRAIL, reach.KindFerrari, reach.KindIP,
			reach.KindBFL, reach.KindFeline, reach.KindPReaCH, survey.KindOReach} {
			ix, _ := reach.Build(k, g, reach.Options{K: 3, Bits: 256, Seed: seed})
			qt := measureQueryTime(ix, qs)
			dec, tot := measureCompleteness(ix, qs)
			t.Row(fmt.Sprintf("%.0f%%", pos*100), ix.Name(), qt, pct(dec, tot))
		}
	}
	t.Write(w)
}

// E5 — §4/§5 claim: LCR index construction is orders of magnitude more
// expensive than plain indexing on the same graph, and complete LCR
// lookups beat constrained BFS by orders of magnitude.
func E5(w io.Writer, sc Scale, seed int64) {
	t := NewTable("E5 — LCR indexing cost vs plain indexing and online search (§4.1/§5)",
		"n", "|L|", "index", "build", "entries", "query", "LCR-BFS", "speedup")
	for _, n := range []int{sc.n(500), sc.n(2000)} {
		for _, L := range []int{4, 8} {
			g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: n, M: 3 * n, Seed: seed}), L, 0.8, seed+1)
			qs := gen.LCRQueries(g, 300, seed+2)
			bfs := measureLCRBFS(g, qs)
			// Plain baseline for the build-cost comparison.
			plain, _ := reach.Build(reach.KindPLL, g, reach.Options{})
			t.Row(n, L, plain.Name()+" (plain)", plain.Stats().BuildTime,
				plain.Stats().Entries, "-", "-", "-")
			for _, k := range []reach.LCRKind{reach.LCRP2H, reach.LCRLandmark, reach.LCRZouGTC} {
				ix, _ := reach.BuildLCR(k, g, reach.Options{K: 16})
				qt := measureLCRTime(ix, qs)
				t.Row(n, L, ix.Name(), ix.Stats().BuildTime, ix.Stats().Entries,
					qt, bfs, ratio(bfs, qt))
			}
		}
	}
	t.Write(w)
}

func measureLCRBFS(g *reach.Graph, qs []gen.LCRQuery) time.Duration {
	start := time.Now()
	for _, q := range qs {
		traversal.LabelConstrainedBFS(g, q.S, q.T, q.Allowed)
	}
	return time.Since(start) / time.Duration(len(qs))
}

func measureLCRTime(ix reach.LCRIndex, qs []gen.LCRQuery) time.Duration {
	start := time.Now()
	for _, q := range qs {
		got := q.S == q.T || ix.ReachLC(q.S, q.T, labelset.Set(q.Allowed))
		if got != (q.Want || q.S == q.T) {
			panic(fmt.Sprintf("%s: wrong LCR answer (%d,%d,%b)", ix.Name(), q.S, q.T, q.Allowed))
		}
	}
	return time.Since(start) / time.Duration(len(qs))
}

// E6 — §4.1.2: the landmark count trades index size for query speed.
func E6(w io.Writer, sc Scale, seed int64) {
	n := sc.n(3000)
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: n, M: 3 * n, Seed: seed}), 6, 0.8, seed+1)
	qs := gen.LCRQueries(g, 300, seed+2)
	t := NewTable(fmt.Sprintf("E6 — landmark-count ablation, n=%d |L|=6 (§4.1.2)", n),
		"k", "build", "entries", "size", "query")
	for _, k := range []int{8, 32, 128, 512} {
		ix, _ := reach.BuildLCR(reach.LCRLandmark, g, reach.Options{K: k})
		qt := measureLCRTime(ix, qs)
		st := ix.Stats()
		t.Row(k, st.BuildTime, st.Entries, formatBytes(st.Bytes), qt)
	}
	t.Write(w)
}

// E7 — §4.2: RLC index lookups vs online product search for
// concatenation constraints.
func E7(w io.Writer, sc Scale, seed int64) {
	n := sc.n(1000)
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: n, M: 4 * n, Seed: seed}), 3, 0.5, seed+1)
	rng := newRng(seed + 2)
	type q struct {
		s, t reach.V
		seq  []reach.Label
	}
	qs := make([]q, 300)
	for i := range qs {
		qs[i] = q{reach.V(rng.Intn(g.N())), reach.V(rng.Intn(g.N())),
			[]reach.Label{reach.Label(rng.Intn(3)), reach.Label(rng.Intn(3))}}
	}
	ix, _ := reach.BuildRLC(g, reach.Options{MaxSeq: 2})
	start := time.Now()
	for _, x := range qs {
		ix.ReachRLC(x.s, x.t, x.seq)
	}
	indexed := time.Since(start) / time.Duration(len(qs))
	start = time.Now()
	for _, x := range qs {
		tc.RLCReach(g, x.s, x.t, x.seq, false)
	}
	online := time.Since(start) / time.Duration(len(qs))
	t := NewTable(fmt.Sprintf("E7 — RLC index vs product-automaton search, n=%d (§4.2)", n),
		"method", "build", "size", "query", "speedup")
	t.Row("RLC index", ix.Stats().BuildTime, formatBytes(ix.Stats().Bytes), indexed, ratio(online, indexed))
	t.Row("product BFS", "-", "-", online, "1.0x")
	t.Write(w)
}

// E8 — dynamic indexes: per-update cost and query latency under a mixed
// insert/delete script (§3.1, §3.2, §5).
func E8(w io.Writer, sc Scale, seed int64) {
	n := sc.n(2000)
	g := gen.RandomDAG(gen.Config{N: n, M: 3 * n, Seed: seed})
	t := NewTable(fmt.Sprintf("E8 — dynamic maintenance, n=%d, 200 updates (§3/§5)", n),
		"index", "build", "insert(avg)", "delete(avg)", "query(after)")
	for _, k := range []reach.Kind{reach.KindTOL, survey.KindDAGGER, survey.KindDBL} {
		ix, _ := survey.BuildDynamic(k, g, reach.Options{K: 2, Bits: 256, Seed: seed})
		script := gen.UpdateScript(g, 200, true, seed+1)
		var insTime, delTime time.Duration
		ins, dels := 0, 0
		for _, op := range script {
			if op.Insert {
				start := time.Now()
				if err := ix.InsertEdge(op.Edge.From, op.Edge.To); err == nil {
					insTime += time.Since(start)
					ins++
				}
			} else {
				start := time.Now()
				if err := ix.DeleteEdge(op.Edge.From, op.Edge.To); err == nil {
					delTime += time.Since(start)
					dels++
				} else {
					dels = -1 << 30 // unsupported marker
				}
			}
		}
		qs := gen.Queries(g, 200, seed+2)
		start := time.Now()
		for _, q := range qs {
			ix.Reach(q.S, q.T)
		}
		qt := time.Since(start) / time.Duration(len(qs))
		del := "unsupported"
		if dels > 0 {
			del = formatDuration(delTime / time.Duration(dels))
		}
		t.Row(ix.Name(), ix.Stats().BuildTime, insTime/time.Duration(max(ins, 1)), del, qt)
	}
	t.Write(w)
}

// E9 — §3.1's "exactly k vs at most k intervals" design axis: GRAIL and
// FERRARI swept over k.
func E9(w io.Writer, sc Scale, seed int64) {
	n := sc.n(20000)
	g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: seed})
	qs := gen.QueriesWithRatio(g, 500, 0.3, seed+1)
	t := NewTable(fmt.Sprintf("E9 — interval-budget ablation, n=%d (§3.1)", n),
		"k", "index", "build", "size", "query", "decided")
	for _, k := range []int{1, 2, 3, 5} {
		for _, kind := range []reach.Kind{reach.KindGRAIL, reach.KindFerrari} {
			ix, _ := reach.Build(kind, g, reach.Options{K: k, Seed: seed})
			qt := measureQueryTime(ix, qs)
			dec, tot := measureCompleteness(ix, qs)
			t.Row(k, ix.Name(), ix.Stats().BuildTime, formatBytes(ix.Stats().Bytes),
				qt, pct(dec, tot))
		}
	}
	t.Write(w)
}

// E10 — §3.4: graph reductions shrink the input for any index.
func E10(w io.Writer, sc Scale, seed int64) {
	t := NewTable("E10 — graph reductions before indexing (§3.4)",
		"graph", "n", "m", "reduction", "n'", "m'", "PLL entries", "PLL entries (reduced)")
	graphs := map[string]*reach.Graph{
		"chain-heavy": gen.LayeredDAG(sc.n(200), 4, 1, seed),
		"er-cyclic":   gen.ErdosRenyi(gen.Config{N: sc.n(2000), M: sc.n(5000), Seed: seed}),
	}
	for name, g0 := range graphs {
		cond := scc.Condense(g0, 0)
		g := cond.DAG
		raw, _ := reach.Build(reach.KindPLL, g, reach.Options{})
		for rname, r := range map[string]*reduction.Reduced{
			"equivalence": reduction.Equivalence(g),
			"chains":      reduction.Chains(g),
		} {
			red, _ := reach.Build(reach.KindPLL, r.G, reach.Options{})
			t.Row(name, g.N(), g.M(), rname, r.G.N(), r.G.M(),
				raw.Stats().Entries, red.Stats().Entries)
		}
		tr := reduction.TransitiveReduce(g)
		red, _ := reach.Build(reach.KindPLL, tr, reach.Options{})
		t.Row(name, g.N(), g.M(), "transitive-reduce", tr.N(), tr.M(),
			raw.Stats().Entries, red.Stats().Entries)
	}
	t.Write(w)
}

// E11 — the §5 open-challenge prototypes built in this repository:
// (a) LCR-Bloom, a partial LCR index WITHOUT false negatives (the gap the
// paper highlights — the landmark index only avoids false positives), and
// (b) fixed-constraint RPQ indexes covering the general α fragment.
func E11(w io.Writer, sc Scale, seed int64) {
	n := sc.n(2000)
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: n, M: 4 * n, Seed: seed}), 6, 0.9, seed+1)

	// (a) negative-heavy LCR mix: LCR-Bloom vs landmark vs BFS.
	qs := gen.LCRQueries(g, 400, seed+2)
	t := NewTable(fmt.Sprintf("E11a — §5 prototype: partial LCR index without false negatives, n=%d |L|=6", n),
		"method", "build", "size", "query", "negDecidedByLookup")
	bloom := mustBuildLCR(reach.LCRBloom, g, reach.Options{Bits: 256, Seed: seed})
	lm := mustBuildLCR(reach.LCRLandmark, g, reach.Options{K: 32})
	bfs := measureLCRBFS(g, qs)
	type probe interface {
		TryReachLC(s, t reach.V, allowed labelset.Set) (bool, bool)
	}
	decided, negs := 0, 0
	if p, ok := bloom.(probe); ok {
		for _, q := range qs {
			if q.Want || q.S == q.T {
				continue
			}
			negs++
			if _, dec := p.TryReachLC(q.S, q.T, labelset.Set(q.Allowed)); dec {
				decided++
			}
		}
	}
	t.Row("LCR-Bloom", bloom.Stats().BuildTime, formatBytes(bloom.Stats().Bytes),
		measureLCRTime(bloom, qs), pct(decided, max(negs, 1)))
	t.Row("Landmark (no-false-positive)", lm.Stats().BuildTime,
		formatBytes(lm.Stats().Bytes), measureLCRTime(lm, qs), "0.0% (wrong direction)")
	t.Row("LCR-BFS", "-", "-", bfs, "0.0%")
	t.Write(w)

	// (b) a general (non-indexable) constraint served by a dedicated
	// product-labeling index vs product search.
	alpha := "(l0.l1|l2)*"
	ci, err := reach.BuildConstraint(g, alpha)
	if err != nil {
		panic(fmt.Sprintf("E11b: BuildConstraint(%q): %v", alpha, err))
	}
	t2 := NewTable(fmt.Sprintf("E11b — §5 prototype: fixed-constraint RPQ index, α=%s, n=%d", alpha, n),
		"method", "build", "size", "query")
	rng := newRng(seed + 3)
	pairs := make([][2]reach.V, 400)
	for i := range pairs {
		pairs[i] = [2]reach.V{reach.V(rng.Intn(n)), reach.V(rng.Intn(n))}
	}
	db, err := reach.NewDB(g, reach.DBConfig{Options: reach.Options{MaxSeq: 1}})
	if err != nil {
		panic(fmt.Sprintf("E11b: NewDB: %v", err))
	}
	start := time.Now()
	searchAnswers := make([]bool, len(pairs))
	for i, p := range pairs {
		got, err := db.Query(p[0], p[1], alpha)
		if err != nil {
			panic(fmt.Sprintf("E11b: Query(%d, %d, %q): %v", p[0], p[1], alpha, err))
		}
		searchAnswers[i] = got
	}
	searchTime := time.Since(start) / time.Duration(len(pairs))
	start = time.Now()
	for i, p := range pairs {
		if got := ci.Reach(p[0], p[1]); got != searchAnswers[i] {
			panic("RPQ index diverged from product search")
		}
	}
	indexTime := time.Since(start) / time.Duration(len(pairs))
	t2.Row("RPQ index", ci.Stats().BuildTime, formatBytes(ci.Stats().Bytes), indexTime)
	t2.Row("product search", "-", "-", searchTime)
	t2.Write(w)
}

func mustBuildLCR(k reach.LCRKind, g *reach.Graph, opt reach.Options) reach.LCRIndex {
	ix, err := reach.BuildLCR(k, g, opt)
	if err != nil {
		panic(fmt.Sprintf("BuildLCR(%s): %v", k, err))
	}
	return ix
}

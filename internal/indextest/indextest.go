// Package indextest provides the shared conformance harness used by every
// index package's tests: a standard suite of graphs (Figure 1 plus all
// generator families) and exhaustive/randomized cross-validation against
// the exact oracles in internal/tc.
package indextest

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/labelset"
	"repro/internal/scc"
	"repro/internal/tc"
)

// DAGSuite returns the standard acyclic test graphs, small enough for
// all-pairs validation.
func DAGSuite() map[string]*graph.Digraph {
	return map[string]*graph.Digraph{
		"fig1":       graph.Fig1Plain(),
		"empty":      graph.FromEdges(1, nil),
		"isolated":   graph.FromEdges(8, nil),
		"line":       line(40),
		"diamonds":   diamonds(10),
		"dag-sparse": gen.RandomDAG(gen.Config{N: 120, M: 180, Seed: 1}),
		"dag-dense":  gen.RandomDAG(gen.Config{N: 80, M: 600, Seed: 2}),
		"scalefree":  gen.ScaleFree(150, 2, 3),
		"layered":    gen.LayeredDAG(6, 15, 2, 4),
		"treeplus":   gen.TreePlus(120, 25, 5),
		"forest":     forest(),
	}
}

// CyclicSuite returns general (cyclic) test graphs.
func CyclicSuite() map[string]*graph.Digraph {
	return map[string]*graph.Digraph{
		"er-1":     gen.ErdosRenyi(gen.Config{N: 90, M: 270, Seed: 1}),
		"er-2":     gen.ErdosRenyi(gen.Config{N: 60, M: 400, Seed: 2}),
		"cycle":    cycle(30),
		"two-sccs": twoSCCs(),
	}
}

func line(n int) *graph.Digraph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.V(i), graph.V(i+1))
	}
	return b.MustFreeze()
}

func cycle(n int) *graph.Digraph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.V(i), graph.V((i+1)%n))
	}
	return b.MustFreeze()
}

// diamonds chains k diamond gadgets: i -> {2 mids} -> i+3.
func diamonds(k int) *graph.Digraph {
	b := graph.NewBuilder(0)
	prev := b.AddVertex()
	for i := 0; i < k; i++ {
		m1, m2, bot := b.AddVertex(), b.AddVertex(), b.AddVertex()
		b.AddEdge(prev, m1)
		b.AddEdge(prev, m2)
		b.AddEdge(m1, bot)
		b.AddEdge(m2, bot)
		prev = bot
	}
	return b.MustFreeze()
}

func forest() *graph.Digraph {
	// Two disjoint trees plus cross edges within one of them.
	b := graph.NewBuilder(0)
	for _, e := range [][2]graph.V{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {5, 6}, {6, 7}, {5, 7}} {
		b.AddEdge(e[0], e[1])
	}
	return b.MustFreeze()
}

func twoSCCs() *graph.Digraph {
	b := graph.NewBuilder(6)
	// SCC {0,1,2} -> SCC {3,4} -> 5
	for _, e := range [][2]graph.V{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}, {4, 5}} {
		b.AddEdge(e[0], e[1])
	}
	return b.MustFreeze()
}

// CheckDAGIndex validates a DAG-only index builder: exhaustive all-pairs
// agreement with the transitive closure on every DAG in the suite, and —
// lifted through core.ForGeneralPrepared — on every cyclic graph too.
func CheckDAGIndex(t *testing.T, build func(dag *graph.Digraph) core.Index) {
	t.Helper()
	for name, g := range DAGSuite() {
		checkAllPairs(t, name, build(g), g)
	}
	for name, g := range CyclicSuite() {
		ix := core.ForGeneralPrepared(g, nil, 0, 0, nil, func(c *scc.Condensation) core.Index { return build(c.DAG) })
		checkAllPairs(t, name, ix, g)
	}
}

// CheckGeneralIndex validates an index builder that accepts general graphs
// directly.
func CheckGeneralIndex(t *testing.T, build func(*graph.Digraph) core.Index) {
	t.Helper()
	for name, g := range DAGSuite() {
		checkAllPairs(t, name, build(g), g)
	}
	for name, g := range CyclicSuite() {
		checkAllPairs(t, name, build(g), g)
	}
}

func checkAllPairs(t *testing.T, name string, ix core.Index, g *graph.Digraph) {
	t.Helper()
	oracle := tc.NewClosure(g)
	for s := graph.V(0); int(s) < g.N(); s++ {
		for tt := graph.V(0); int(tt) < g.N(); tt++ {
			want := oracle.Reach(s, tt)
			if got := ix.Reach(s, tt); got != want {
				t.Fatalf("%s[%s]: Reach(%d,%d) = %v, want %v",
					ix.Name(), name, s, tt, got, want)
			}
		}
	}
	if st := ix.Stats(); st.Bytes < 0 || st.Entries < 0 {
		t.Errorf("%s[%s]: negative stats %+v", ix.Name(), name, st)
	}
}

// CheckPartialSoundness verifies the §5 contract of a partial index's
// lookup-only answers: every decided TryReach answer matches ground truth
// (no false negatives AND no false positives among *decided* answers).
func CheckPartialSoundness(t *testing.T, build func(*graph.Digraph) core.Index) {
	t.Helper()
	for name, g := range DAGSuite() {
		ix, ok := build(g).(core.Partial)
		if !ok {
			t.Fatalf("%s: index is not core.Partial", name)
		}
		oracle := tc.NewClosure(g)
		decided, total := 0, 0
		for s := graph.V(0); int(s) < g.N(); s++ {
			for tt := graph.V(0); int(tt) < g.N(); tt++ {
				total++
				r, dec := ix.TryReach(s, tt)
				if !dec {
					continue
				}
				decided++
				if want := oracle.Reach(s, tt); r != want {
					t.Fatalf("%s[%s]: TryReach(%d,%d) decided %v, truth %v",
						ix.Name(), name, s, tt, r, want)
				}
			}
		}
		if decided == 0 && total > 1 && g.M() > 0 {
			t.Errorf("%s[%s]: partial index decided nothing", ix.Name(), name)
		}
	}
}

// CheckDynamic replays a randomized insert/delete script against a dynamic
// index, validating full agreement with a rebuilt oracle after every
// operation (on a sampled query set).
func CheckDynamic(t *testing.T, build func(*graph.Digraph) core.Dynamic, dagSafe bool, ops, queriesPerOp int) {
	t.Helper()
	var g *graph.Digraph
	if dagSafe {
		g = gen.RandomDAG(gen.Config{N: 60, M: 150, Seed: 10})
	} else {
		g = gen.ErdosRenyi(gen.Config{N: 60, M: 150, Seed: 10})
	}
	ix := build(g)
	script := gen.UpdateScript(g, ops, dagSafe, 11)
	rng := rand.New(rand.NewSource(12))
	cur := graph.Mutate(g)
	for i, op := range script {
		var err error
		if op.Insert {
			cur.AddEdge(op.Edge.From, op.Edge.To)
			err = ix.InsertEdge(op.Edge.From, op.Edge.To)
		} else {
			cur.RemoveEdge(op.Edge)
			err = ix.DeleteEdge(op.Edge.From, op.Edge.To)
		}
		if err != nil {
			t.Fatalf("op %d (%+v): %v", i, op, err)
		}
		snapshot := cur.MustFreeze()
		oracle := tc.NewClosure(snapshot)
		for q := 0; q < queriesPerOp; q++ {
			s := graph.V(rng.Intn(snapshot.N()))
			tt := graph.V(rng.Intn(snapshot.N()))
			if got, want := ix.Reach(s, tt), oracle.Reach(s, tt); got != want {
				t.Fatalf("%s: after op %d (%+v): Reach(%d,%d) = %v, want %v",
					ix.Name(), i, op, s, tt, got, want)
			}
		}
		cur = graph.Mutate(snapshot)
	}
}

// LabeledSuite returns labeled test graphs for the LCR/RLC indexes.
func LabeledSuite() map[string]*graph.Digraph {
	return map[string]*graph.Digraph{
		"fig1":      graph.Fig1Labeled(),
		"er-L4":     gen.Zipf(gen.ErdosRenyi(gen.Config{N: 50, M: 200, Seed: 1}), 4, 0.8, 2),
		"er-L8":     gen.Zipf(gen.ErdosRenyi(gen.Config{N: 40, M: 160, Seed: 3}), 8, 1.0, 4),
		"dag-L4":    gen.Zipf(gen.RandomDAG(gen.Config{N: 60, M: 180, Seed: 5}), 4, 0, 6),
		"sparse-L2": gen.Zipf(gen.RandomDAG(gen.Config{N: 70, M: 100, Seed: 7}), 2, 0, 8),
	}
}

// CheckLCRIndex validates an LCR index against the exact GTC on every
// labeled suite graph, over exhaustive pairs with randomized label masks.
func CheckLCRIndex(t *testing.T, build func(*graph.Digraph) core.LCRIndex) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for name, g := range LabeledSuite() {
		ix := build(g)
		oracle := tc.NewGTC(g)
		L := g.Labels()
		for s := graph.V(0); int(s) < g.N(); s++ {
			for tt := graph.V(0); int(tt) < g.N(); tt++ {
				for k := 0; k < 3; k++ {
					mask := labelset.Set(rng.Int63n(1 << uint(L)))
					want := s == tt || oracle.ReachLC(s, tt, mask)
					if got := ix.ReachLC(s, tt, mask); got != want {
						t.Fatalf("%s[%s]: ReachLC(%d,%d,%b) = %v, want %v",
							ix.Name(), name, s, tt, mask, got, want)
					}
				}
			}
		}
	}
}

// CheckRLCIndex validates an RLC index against product-BFS ground truth
// with randomized short label sequences.
func CheckRLCIndex(t *testing.T, build func(*graph.Digraph, int) core.RLCIndex, maxSeq int) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	for name, g := range LabeledSuite() {
		ix := build(g, maxSeq)
		L := g.Labels()
		for q := 0; q < 1500; q++ {
			s := graph.V(rng.Intn(g.N()))
			tt := graph.V(rng.Intn(g.N()))
			seqLen := 1 + rng.Intn(maxSeq)
			seq := make([]graph.Label, seqLen)
			for i := range seq {
				seq[i] = graph.Label(rng.Intn(L))
			}
			want := tc.RLCReach(g, s, tt, seq, false)
			if got := ix.ReachRLC(s, tt, seq); got != want {
				t.Fatalf("%s[%s]: ReachRLC(%d,%d,%v) = %v, want %v",
					ix.Name(), name, s, tt, seq, got, want)
			}
		}
	}
}

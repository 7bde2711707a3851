package scc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// builderCondense is the Builder-based Condense that graph.Quotient
// replaced, over the classic Tarjan, kept as the reference the
// condensation must equal.
func builderCondense(g *graph.Digraph) *Condensation {
	c := tarjanOracle(g)
	b := graph.NewBuilder(c.Count)
	if g.Labeled() {
		b = graph.NewLabeledBuilder(c.Count)
		b.ReserveLabels(g.Labels())
	}
	g.Edges(func(e graph.Edge) bool {
		if cu, cv := c.Comp[e.From], c.Comp[e.To]; cu != cv {
			if g.Labeled() {
				b.AddLabeledEdge(cu, cv, e.Label)
			} else {
				b.AddEdge(cu, cv)
			}
		}
		return true
	})
	return &Condensation{DAG: b.MustFreeze(), Comp: c.Comp}
}

// sameGraph fails t unless got and want have the same shape, label
// universe and, vertex by vertex, the same successor and predecessor
// lists with their labels.
func sameGraph(t *testing.T, got, want *graph.Digraph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Labels() != want.Labels() ||
		got.Labeled() != want.Labeled() {
		t.Fatalf("shape: got n=%d m=%d labels=%d labeled=%v, want n=%d m=%d labels=%d labeled=%v",
			got.N(), got.M(), got.Labels(), got.Labeled(), want.N(), want.M(), want.Labels(), want.Labeled())
	}
	for v := graph.V(0); int(v) < got.N(); v++ {
		if !slices.Equal(got.Succ(v), want.Succ(v)) || !slices.Equal(got.Pred(v), want.Pred(v)) {
			t.Fatalf("vertex %d: succ %v pred %v, want %v %v", v, got.Succ(v), got.Pred(v), want.Succ(v), want.Pred(v))
		}
		if got.Labeled() && (!slices.Equal(got.SuccLabels(v), want.SuccLabels(v)) ||
			!slices.Equal(got.PredLabels(v), want.PredLabels(v))) {
			t.Fatalf("vertex %d: labels differ", v)
		}
		if got.VertexName(v) != want.VertexName(v) {
			t.Fatalf("vertex %d named %q, want %q", v, got.VertexName(v), want.VertexName(v))
		}
	}
}

func TestCondenseMatchesBuilderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(80) // the generators need two vertices to draw an edge
		cfg := gen.Config{N: n, M: rng.Intn(4 * n), Seed: int64(iter)}
		var g *graph.Digraph
		switch iter % 3 {
		case 0:
			g = gen.ErdosRenyi(cfg) // cycles, self-loops
		case 1:
			g = gen.RandomDAG(cfg)
		default:
			// Labeled, with more labels in the universe than on the
			// condensed edges once SCCs swallow some.
			g = gen.UniformLabels(gen.ErdosRenyi(cfg), 1+rng.Intn(8), int64(iter))
		}
		want := builderCondense(g)
		for _, workers := range []int{1, 2} {
			got := Condense(g, workers)
			if !slices.Equal(got.Comp, want.Comp) {
				t.Fatalf("iter %d workers %d: Comp differs", iter, workers)
			}
			sameGraph(t, got.DAG, want.DAG)
		}
	}
}

// TestCondenseAllocsDoNotGrowWithM pins the condensation as a fixed set
// of arrays: the same number of allocations at m=4·10⁴ and m=4·10⁵. An
// append-grown edge list or DFS stack would add one per doubling.
func TestCondenseAllocsDoNotGrowWithM(t *testing.T) {
	allocs := func(n int) float64 {
		g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: 1})
		return testing.AllocsPerRun(2, func() { Condense(g, 0) })
	}
	small, large := allocs(10_000), allocs(100_000)
	t.Logf("Condense allocations: %v at m=4·10⁴, %v at m=4·10⁵", small, large)
	if small != large || large > 20 {
		t.Fatalf("Condense allocates %v at m=4·10⁴ but %v at m=4·10⁵; want the same small constant", small, large)
	}
}

// TestTarjanMatchesOracle holds Pearce's one-word Tarjan equal, Comp and
// Count, to the classic four-array form (the frame's emitted word, which
// yields Min, changes neither) on cyclic (self-loops included),
// acyclic and labeled graphs, on a 2·10⁵-vertex closed path (one
// component, the deepest stack) and on a 10⁵-long chain of 2-cycles
// (a deep stack that emits many components).
func TestTarjanMatchesOracle(t *testing.T) {
	same := func(name string, g *graph.Digraph) {
		t.Helper()
		got, want := Tarjan(g), tarjanOracle(g)
		if got.Count != want.Count || !slices.Equal(got.Comp, want.Comp) {
			t.Fatalf("%s: Count %d, want %d; Comp equal: %v", name, got.Count, want.Count,
				slices.Equal(got.Comp, want.Comp))
		}
		// The frame's emitted word adds Min beside Comp and changes
		// neither: one entry a component, each at most its own id.
		if len(got.Min) != got.Count {
			t.Fatalf("%s: %d Min entries for %d components", name, len(got.Min), got.Count)
		}
		for c, lo := range got.Min {
			if lo > uint32(c) {
				t.Fatalf("%s: Min[%d] = %d > %d", name, c, lo, c)
			}
		}
	}
	rng := rand.New(rand.NewSource(35))
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(120)
		cfg := gen.Config{N: max(n, 2), M: rng.Intn(3 * n), Seed: int64(iter)}
		switch iter % 3 {
		case 0:
			same("er", gen.ErdosRenyi(cfg))
		case 1:
			same("dag", gen.RandomDAG(cfg))
		default:
			same("labeled", gen.UniformLabels(gen.ErdosRenyi(cfg), 1+rng.Intn(8), int64(iter)))
		}
	}
	const ring = 200_000
	b := graph.NewBuilder(ring)
	for i := 0; i < ring; i++ {
		b.AddEdge(graph.V(i), graph.V((i+1)%ring))
	}
	same("closed path", b.MustFreeze())
	const pairs = 100_000
	b = graph.NewBuilder(2 * pairs)
	for i := 0; i < pairs; i++ {
		u, v := graph.V(2*i), graph.V(2*i+1)
		b.AddEdge(u, v)
		b.AddEdge(v, u)
		if i+1 < pairs {
			b.AddEdge(v, u+2)
		}
	}
	same("chain of 2-cycles", b.MustFreeze())
}

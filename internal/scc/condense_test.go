package scc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// builderCondense is the Builder-based Condense that graph.Quotient
// replaced, kept as the reference the condensation must equal.
func builderCondense(g *graph.Digraph) *Condensation {
	c := Tarjan(g)
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
		got, want := Condense(g), builderCondense(g)
		if !slices.Equal(got.Comp, want.Comp) {
			t.Fatalf("iter %d: Comp differs", iter)
		}
		sameGraph(t, got.DAG, want.DAG)
	}
}

// TestCondenseAllocsDoNotGrowWithM pins the condensation as a fixed set
// of arrays: the same number of allocations at m=4·10⁴ and m=4·10⁵. An
// append-grown edge list or DFS stack would add one per doubling.
func TestCondenseAllocsDoNotGrowWithM(t *testing.T) {
	allocs := func(n int) float64 {
		g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: 1})
		return testing.AllocsPerRun(2, func() { Condense(g) })
	}
	small, large := allocs(10_000), allocs(100_000)
	t.Logf("Condense allocations: %v at m=4·10⁴, %v at m=4·10⁵", small, large)
	if small != large || large > 20 {
		t.Fatalf("Condense allocates %v at m=4·10⁴ but %v at m=4·10⁵; want the same small constant", small, large)
	}
}

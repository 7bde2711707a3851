package scc

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/traversal"
)

func TestTarjanSimpleCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 is one SCC; 3 alone.
	g := graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	c := Tarjan(g)
	if c.Count != 2 {
		t.Fatalf("Count = %d, want 2", c.Count)
	}
	if c.Comp[0] != c.Comp[1] || c.Comp[1] != c.Comp[2] {
		t.Error("cycle vertices in different components")
	}
	if c.Comp[3] == c.Comp[0] {
		t.Error("vertex 3 merged into cycle")
	}
}

func TestTarjanDAG(t *testing.T) {
	g := graph.FromEdges(5, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}})
	c := Tarjan(g)
	if c.Count != 5 {
		t.Fatalf("Count = %d, want 5 (DAG: every vertex its own SCC)", c.Count)
	}
}

func TestTarjanReverseTopoIDs(t *testing.T) {
	// Component ids must be in reverse topological order of the
	// condensation: if comp a reaches comp b then id(a) > id(b).
	g := gen.RandomDAG(gen.Config{N: 200, M: 600, Seed: 7})
	c := Tarjan(g)
	g.Edges(func(e graph.Edge) bool {
		ca, cb := c.Comp[e.From], c.Comp[e.To]
		if ca != cb && ca <= cb {
			t.Fatalf("edge %d->%d: comp ids %d <= %d violate reverse topo order",
				e.From, e.To, ca, cb)
		}
		return true
	})
}

func TestCondenseIsDAG(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 300, M: 1200, Seed: 3})
	cond := Condense(g, 0)
	if !order.IsDAG(cond.DAG) {
		t.Fatal("condensation has a cycle")
	}
	if len(cond.Comp) != g.N() {
		t.Fatalf("Comp has %d entries, want %d", len(cond.Comp), g.N())
	}
	for v, c := range cond.Comp {
		if int(c) >= cond.DAG.N() {
			t.Fatalf("Comp[%d] = %d, out of the DAG's %d vertices", v, c, cond.DAG.N())
		}
	}
}

func TestCondensePreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 5; iter++ {
		g := gen.ErdosRenyi(gen.Config{N: 60, M: 150, Seed: int64(iter)})
		cond := Condense(g, 0)
		for q := 0; q < 200; q++ {
			s := graph.V(rng.Intn(g.N()))
			tt := graph.V(rng.Intn(g.N()))
			want := traversal.BFS(g, s, tt)
			var got bool
			if cond.SameComponent(s, tt) {
				got = true
			} else {
				got = traversal.BFS(cond.DAG, cond.Comp[s], cond.Comp[tt])
			}
			if got != want {
				t.Fatalf("seed %d: reach(%d,%d) via condensation = %v, want %v",
					iter, s, tt, got, want)
			}
		}
	}
}

func TestCondenseLabeled(t *testing.T) {
	b := graph.NewLabeledBuilder(4)
	b.AddLabeledEdge(0, 1, 0)
	b.AddLabeledEdge(1, 0, 1)
	b.AddLabeledEdge(1, 2, 2)
	b.AddLabeledEdge(2, 3, 0)
	g := b.MustFreeze()
	cond := Condense(g, 0)
	if cond.DAG.Labels() != g.Labels() {
		t.Fatalf("label universe shrank: %d vs %d", cond.DAG.Labels(), g.Labels())
	}
	if !cond.DAG.Labeled() {
		t.Fatal("condensation lost labels")
	}
	if cond.DAG.N() != 3 {
		t.Fatalf("DAG has %d vertices, want 3", cond.DAG.N())
	}
}

func TestTarjanFig1(t *testing.T) {
	// The Figure 1 reconstruction is a DAG: every vertex its own SCC.
	g := graph.Fig1Plain()
	c := Tarjan(g)
	if c.Count != g.N() {
		t.Fatalf("Fig1 components = %d, want %d", c.Count, g.N())
	}
}

func TestTarjanLargeIterative(t *testing.T) {
	// A long path would overflow a recursive implementation's stack.
	n := 200000
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.V(i), graph.V(i+1))
	}
	// Close the loop to make one giant SCC.
	b.AddEdge(graph.V(n-1), 0)
	g := b.MustFreeze()
	c := Tarjan(g)
	if c.Count != 1 {
		t.Fatalf("giant cycle: Count = %d, want 1", c.Count)
	}
}

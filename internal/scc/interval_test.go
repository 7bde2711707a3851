package scc_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scc"
	"repro/internal/tc"
)

// TestTarjanIntervalsAreSound: Tarjan's emission order is a DFS
// postorder of the condensation, so every component id in [Min[c], c]
// is reachable from c. Checked pair by pair against the transitive
// closure on cyclic, acyclic, tree-like and banded graphs.
func TestTarjanIntervalsAreSound(t *testing.T) {
	for name, g := range map[string]*graph.Digraph{
		"er-sparse": gen.ErdosRenyi(gen.Config{N: 2000, M: 2400, Seed: 1}),
		"er-dense":  gen.ErdosRenyi(gen.Config{N: 1500, M: 4500, Seed: 2}),
		"dag":       gen.RandomDAG(gen.Config{N: 2000, M: 8000, Seed: 3}),
		"treeplus":  gen.TreePlus(2000, 200, 4),
		"banded":    gen.BandedDAG(gen.Config{N: 2000, M: 8000, Seed: 5}, 64),
	} {
		c := scc.Tarjan(g)
		if len(c.Min) != c.Count {
			t.Fatalf("%s: %d Min entries for %d components", name, len(c.Min), c.Count)
		}
		// One vertex per component stands for it in the closure.
		rep := make([]graph.V, c.Count)
		for v, k := range c.Comp {
			rep[k] = graph.V(v)
		}
		oracle := tc.NewClosure(g)
		covered := 0
		for k := range c.Count {
			lo := c.Min[k]
			if lo > uint32(k) {
				t.Fatalf("%s: Min[%d] = %d > %d", name, k, lo, k)
			}
			for d := lo; d <= uint32(k); d++ {
				if !oracle.Reach(rep[k], rep[d]) {
					t.Fatalf("%s: component %d in [Min[%d], %d] = [%d, %d] is not reachable from it",
						name, d, k, k, lo, k)
				}
			}
			covered += k - int(lo)
		}
		t.Logf("%s: %d components, %d pairs certified by intervals", name, c.Count, covered)
	}
}

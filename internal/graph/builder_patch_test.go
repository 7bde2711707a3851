package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomEdges returns a graph on n vertices with about m distinct edges,
// self-loops included.
func randomEdges(n, m int, seed int64) *Digraph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(V(rng.Intn(n)), V(rng.Intn(n)))
	}
	return b.MustFreeze()
}

// randomPatch draws a patch for g: r of its edges to remove and a fresh
// non-edges to add, both sorted.
func randomPatch(g *Digraph, r, a int, seed int64) (removed, added []Edge) {
	rng := rand.New(rand.NewSource(seed))
	es := g.EdgeList()
	for _, i := range rng.Perm(len(es))[:r] {
		removed = append(removed, es[i])
	}
	fresh := map[Edge]bool{}
	for len(fresh) < a {
		if e := (Edge{From: V(rng.Intn(g.N())), To: V(rng.Intn(g.N()))}); !g.HasEdge(e.From, e.To) {
			fresh[e] = true
		}
	}
	for e := range fresh {
		added = append(added, e)
	}
	slices.SortFunc(removed, cmpEdge)
	slices.SortFunc(added, cmpEdge)
	return removed, added
}

// TestPatchedMatchesRemoveEdge: the one-pass fold builds the graph the
// edge-at-a-time path (Mutate, RemoveEdge per removal, AddEdge per
// addition) builds, and its edge list is already in CSR order.
func TestPatchedMatchesRemoveEdge(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		g := randomEdges(40, 160, seed)
		removed, added := randomPatch(g, int(seed)*3, int(seed)*4, seed+100)
		// Tolerated, though the overlay never produces them: a removal of
		// an absent edge and an addition of a present one.
		removed = append(removed, Edge{From: 39, To: 39})
		added = append(added, g.EdgeList()[0])
		slices.SortFunc(removed, cmpEdge)
		slices.SortFunc(added, cmpEdge)

		want := Mutate(g)
		for _, e := range removed {
			want.RemoveEdge(e)
		}
		for _, e := range added {
			want.AddEdge(e.From, e.To)
		}
		got := Patched(g, removed, added)
		if !slices.IsSortedFunc(got.edges, cmpEdge) {
			t.Fatalf("seed %d: the patched edge list is not in CSR order: Freeze would sort it", seed)
		}
		if g1, g2 := got.MustFreeze(), want.MustFreeze(); !slices.Equal(g1.EdgeList(), g2.EdgeList()) {
			t.Fatalf("seed %d: Patched = %v, RemoveEdge/AddEdge path = %v", seed, g1.EdgeList(), g2.EdgeList())
		}
	}
}

// TestPatchVisitsLinear pins the fold's cost by count, not by the clock: at
// m = 4·10⁵, folding 256 removals and folding 16 384 both take at most one
// step per edge of the graph plus one per patch entry, where RemoveEdge per
// removal took R·m.
func TestPatchVisitsLinear(t *testing.T) {
	g := randomEdges(100_000, 400_000, 7)
	for _, r := range []int{256, 16_384} {
		removed, added := randomPatch(g, r, r, int64(r))
		es, steps := patchEdges(g, removed, added)
		if len(es) != g.M() { // R edges out, R in
			t.Fatalf("R=%d: %d edges after the fold, want %d", r, len(es), g.M())
		}
		if bound := g.M() + len(removed) + len(added); steps > bound {
			t.Errorf("R=%d: the fold took %d steps, more than m+R+A = %d", r, steps, bound)
		}
	}
}

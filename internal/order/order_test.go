package order

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scc"
)

func TestTopologicalDAG(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 500, M: 2000, Seed: 1})
	topo, ok := Topological(g)
	if !ok {
		t.Fatal("RandomDAG reported cyclic")
	}
	rank := Rank(topo)
	g.Edges(func(e graph.Edge) bool {
		if rank[e.From] >= rank[e.To] {
			t.Fatalf("edge %d->%d violates topo order", e.From, e.To)
		}
		return true
	})
}

func TestTopologicalCycle(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.V{{0, 1}, {1, 2}, {2, 0}})
	if _, ok := Topological(g); ok {
		t.Fatal("cycle not detected")
	}
	if IsDAG(g) {
		t.Fatal("IsDAG true on cycle")
	}
}

func TestLevels(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3: levels 0,1,1,2.
	g := graph.FromEdges(4, [][2]graph.V{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	lev, count := Levels(g)
	want := []uint32{0, 1, 1, 2}
	for v, w := range want {
		if lev[v] != w {
			t.Errorf("level(%d) = %d, want %d", v, lev[v], w)
		}
	}
	if count != 3 {
		t.Errorf("levels = %d, want 3", count)
	}
}

func TestLevelsMonotoneOnEdges(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 300, M: 900, Seed: 5})
	lev, _ := Levels(g)
	g.Edges(func(e graph.Edge) bool {
		if lev[e.From] >= lev[e.To] {
			t.Fatalf("edge %d->%d: levels %d >= %d", e.From, e.To, lev[e.From], lev[e.To])
		}
		return true
	})
}

func TestByDegreeDesc(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.V{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	vs := ByDegreeDesc(g)
	if vs[0] != 0 {
		t.Fatalf("highest degree vertex should be 0, got %d", vs[0])
	}
	// Verify it is a permutation.
	seen := make(map[graph.V]bool)
	for _, v := range vs {
		if seen[v] {
			t.Fatal("duplicate in order")
		}
		seen[v] = true
	}
	if len(seen) != g.N() {
		t.Fatal("order is not a permutation")
	}
}

func TestByDegreeProductDesc(t *testing.T) {
	// Vertex 1 has in=1 out=2 -> product (1+1)*(2+1)=6, tops.
	g := graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {1, 3}})
	vs := ByDegreeProductDesc(g)
	if vs[0] != 1 {
		t.Fatalf("top product vertex = %d, want 1", vs[0])
	}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vs := Random(100, rng)
	seen := make(map[graph.V]bool)
	for _, v := range vs {
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatal("not a permutation")
	}
}

func TestDFSForestIntervals(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 400, M: 1000, Seed: 2})
	p := DFSForest(g, Sources(g), nil)
	// Interval invariants: Min <= Post, all post numbers distinct, and the
	// parent's interval contains the child's.
	seen := make(map[uint32]bool)
	for v := 0; v < g.N(); v++ {
		if p.Min[v] > p.Post[v] {
			t.Fatalf("vertex %d: Min %d > Post %d", v, p.Min[v], p.Post[v])
		}
		if seen[p.Post[v]] {
			t.Fatalf("duplicate post number %d", p.Post[v])
		}
		seen[p.Post[v]] = true
	}
	for v := 0; v < g.N(); v++ {
		par := p.Parent[graph.V(v)]
		if par == graph.V(v) {
			continue
		}
		if !(p.Min[par] <= p.Min[v] && p.Post[v] <= p.Post[par]) {
			t.Fatalf("child %d interval [%d,%d] not inside parent %d interval [%d,%d]",
				v, p.Min[v], p.Post[v], par, p.Min[par], p.Post[par])
		}
	}
}

func TestDFSForestContainsMatchesTreePaths(t *testing.T) {
	// On a pure tree, Contains(s, t) must equal "t in subtree of s".
	b := graph.NewBuilder(7)
	//        0
	//      /   \
	//     1     2
	//    / \     \
	//   3   4     5
	//              \
	//               6
	for _, e := range [][2]graph.V{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustFreeze()
	p := DFSForest(g, []graph.V{0}, nil)
	inSubtree := map[[2]graph.V]bool{
		{0, 0}: true, {0, 1}: true, {0, 2}: true, {0, 3}: true, {0, 4}: true, {0, 5}: true, {0, 6}: true,
		{1, 1}: true, {1, 3}: true, {1, 4}: true,
		{2, 2}: true, {2, 5}: true, {2, 6}: true,
		{5, 5}: true, {5, 6}: true,
	}
	for s := graph.V(0); s < 7; s++ {
		for tt := graph.V(0); tt < 7; tt++ {
			want := inSubtree[[2]graph.V{s, tt}] || s == tt
			if got := p.Contains(s, tt); got != want {
				t.Errorf("Contains(%d,%d) = %v, want %v", s, tt, got, want)
			}
		}
	}
}

func TestDFSForestCoversAllVertices(t *testing.T) {
	// Even with roots that reach nothing, every vertex must get numbered.
	g := graph.FromEdges(5, [][2]graph.V{{3, 4}})
	p := DFSForest(g, []graph.V{0}, nil)
	seen := make(map[uint32]bool)
	for v := 0; v < 5; v++ {
		seen[p.Post[v]] = true
	}
	if len(seen) != 5 {
		t.Fatal("post numbers not distinct over all vertices")
	}
}

func TestSourcesSinks(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {3, 2}})
	src := Sources(g)
	if len(src) != 2 || src[0] != 0 || src[1] != 3 {
		t.Errorf("Sources = %v", src)
	}
	snk := Sinks(g)
	if len(snk) != 1 || snk[0] != 2 {
		t.Errorf("Sinks = %v", snk)
	}
}

// kahnLevels is Levels as it was before the id-order sweep: levels always
// propagated along Kahn's Topological order. The reference Levels must
// equal on every input, cyclic ones included.
func kahnLevels(g *graph.Digraph) ([]uint32, int) {
	topo, _ := Topological(g)
	lev := make([]uint32, g.N())
	max := uint32(0)
	for _, v := range topo {
		for _, w := range g.Succ(v) {
			if lev[v]+1 > lev[w] {
				lev[w] = lev[v] + 1
			}
		}
		if lev[v] > max {
			max = lev[v]
		}
	}
	return lev, int(max) + 1
}

// TestLevelsMatchKahn checks Levels against kahnLevels on seeded random
// DAGs whose ids are shuffled (the sweep fails and Kahn runs), on their
// condensations (every edge to a lower id: the descending sweep) and the
// reverses of those (the ascending sweep), and on cyclic graphs.
func TestLevelsMatchKahn(t *testing.T) {
	check := func(name string, g *graph.Digraph, sweeps bool) {
		t.Helper()
		if _, ok := sweepLevels(g, make([]uint32, g.N())); ok != sweeps {
			t.Fatalf("%s: the id-order sweep succeeded = %v, want %v", name, ok, sweeps)
		}
		lev, nl := Levels(g)
		want, wnl := kahnLevels(g)
		if nl != wnl || !slices.Equal(lev, want) {
			t.Fatalf("%s (n=%d m=%d): Levels gives %d levels %v, Kahn %d levels %v",
				name, g.N(), g.M(), nl, lev, wnl, want)
		}
	}
	for seed := int64(1); seed <= 30; seed++ {
		n := 1 + int(seed)*7
		dag := gen.RandomDAG(gen.Config{N: n, M: 3 * n, Seed: seed})
		cond := scc.Condense(dag, 0).DAG
		check("shuffled DAG", dag, false)
		check("condensation", cond, true)
		check("reversed condensation", cond.Reverse(), true)
		check("cyclic", gen.ErdosRenyi(gen.Config{N: n, M: 2 * n, Seed: seed}), false)
	}
	check("self-loop", graph.FromEdges(3, [][2]graph.V{{2, 1}, {1, 1}, {1, 0}}), false)
	check("empty", graph.FromEdges(0, nil), true)
}

// TestLevelsOfCondensationAllocatesOnce: a condensation's ids are already
// a topological order, so Levels allocates only its result, no in-degree
// array, queue or order.
func TestLevelsOfCondensationAllocatesOnce(t *testing.T) {
	cond := scc.Condense(gen.ErdosRenyi(gen.Config{N: 2000, M: 6000, Seed: 3}), 0).DAG
	if allocs := testing.AllocsPerRun(5, func() { Levels(cond) }); allocs != 1 {
		t.Fatalf("Levels of a condensation makes %.0f allocations, want 1", allocs)
	}
}

// TestDFSForestMatchesOracle holds DFSForest equal, Post, Min and Parent,
// to the walk it replaced, and leaves rng where the old walk left it: on
// random DAGs, with all, some or no roots given (duplicates and
// non-sources included), and on cyclic graphs, with and without rng.
func TestDFSForestMatchesOracle(t *testing.T) {
	pick := rand.New(rand.NewSource(35))
	for iter := 0; iter < 400; iter++ {
		n := 2 + pick.Intn(150)
		cfg := gen.Config{N: n, M: pick.Intn(4 * n), Seed: int64(iter)}
		g := gen.RandomDAG(cfg)
		if iter%4 == 3 {
			g = gen.ErdosRenyi(cfg)
		}
		var roots []graph.V
		switch iter % 3 {
		case 0:
			roots = Sources(g)
		case 1:
			for k := pick.Intn(n); k > 0; k-- {
				roots = append(roots, graph.V(pick.Intn(n)))
			}
		}
		for _, shuffled := range []bool{false, true} {
			var rngGot, rngWant *rand.Rand
			if shuffled {
				rngGot, rngWant = rand.New(rand.NewSource(int64(iter))), rand.New(rand.NewSource(int64(iter)))
			}
			got, want := DFSForest(g, roots, rngGot), dfsForestOracle(g, roots, rngWant)
			if !slices.Equal(got.Post, want.Post) || !slices.Equal(got.Min, want.Min) ||
				!slices.Equal(got.Parent, want.Parent) {
				t.Fatalf("iter %d (rng %v): forest differs from the oracle", iter, shuffled)
			}
			if shuffled && rngGot.Int63() != rngWant.Int63() {
				t.Fatalf("iter %d: rng stream differs after the walk", iter)
			}
		}
	}
}

// TestDFSForestAllocsDoNotGrowWithN pins DFSForest as a fixed set of
// arrays: the same number of allocations at n=10⁴ and n=10⁵, with and
// without rng. A copy per shuffled vertex, or an append-grown stack,
// would grow with n.
func TestDFSForestAllocsDoNotGrowWithN(t *testing.T) {
	allocs := func(n int, shuffled bool) float64 {
		g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: 1})
		roots := Sources(g)
		return testing.AllocsPerRun(2, func() {
			var rng *rand.Rand
			if shuffled {
				rng = rand.New(rand.NewSource(1))
			}
			DFSForest(g, roots, rng)
		})
	}
	for _, shuffled := range []bool{false, true} {
		small, large := allocs(10_000, shuffled), allocs(100_000, shuffled)
		t.Logf("DFSForest allocations (rng %v): %v at n=10⁴, %v at n=10⁵", shuffled, small, large)
		if small != large || large > 10 {
			t.Fatalf("DFSForest (rng %v) allocates %v at n=10⁴ but %v at n=10⁵; want the same small constant",
				shuffled, small, large)
		}
	}
}

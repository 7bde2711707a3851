package traversal_test

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/traversal"
)

// topoOrder computes a topological order of a DAG by Kahn's algorithm
// (test-local; the library derives orders from the condensation instead).
func topoOrder(t *testing.T, g *graph.Digraph) []graph.V {
	t.Helper()
	indeg := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succ(graph.V(v)) {
			indeg[w]++
		}
	}
	var order []graph.V
	for v := 0; v < g.N(); v++ {
		if indeg[v] == 0 {
			order = append(order, graph.V(v))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, w := range g.Succ(order[i]) {
			if indeg[w]--; indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	if len(order) != g.N() {
		t.Fatal("graph is not a DAG")
	}
	return order
}

// TestMultiSourceReachMatchesBFS proves the bit-parallel kernel answers
// identically to per-pair BFS, on cyclic graphs and DAGs, for source
// blocks of every size up to the word width.
func TestMultiSourceReachMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := []*graph.Digraph{
		gen.ErdosRenyi(gen.Config{N: 120, M: 400, Seed: 1}), // cyclic
		gen.RandomDAG(gen.Config{N: 150, M: 450, Seed: 2}),
		gen.ScaleFree(100, 3, 3),
		graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 0}, {2, 3}}), // small cycle
	}
	for gi, g := range graphs {
		for _, k := range []int{1, 2, 63, 64} {
			sources := make([]graph.V, k)
			for j := range sources {
				sources[j] = graph.V(rng.Intn(g.N()))
			}
			words := make([]uint64, g.N())
			traversal.MultiSourceReach(g, sources, words)
			for j, s := range sources {
				for v := 0; v < g.N(); v++ {
					got := words[v]&(1<<uint(j)) != 0
					want := traversal.BFS(g, s, graph.V(v))
					if got != want {
						t.Fatalf("graph %d, %d sources: kernel(%d→%d)=%v, BFS=%v",
							gi, k, s, v, got, want)
					}
				}
			}
		}
	}
}

// TestMultiSourceSweepMatchesReach proves the DAG single-pass variant
// agrees with the worklist kernel (and hence BFS) given a topological
// order, including duplicate sources sharing a seed vertex.
func TestMultiSourceSweepMatchesReach(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 200, M: 700, Seed: 5})
	ord := topoOrder(t, g)
	rng := rand.New(rand.NewSource(6))
	sources := make([]graph.V, 64)
	for j := range sources {
		sources[j] = graph.V(rng.Intn(g.N()))
	}
	sources[7] = sources[3] // duplicate source: two bits, one seed vertex
	sweep := make([]uint64, g.N())
	for j, s := range sources {
		sweep[s] |= 1 << uint(j)
	}
	traversal.MultiSourceSweep(g, ord, sweep)
	worklist := make([]uint64, g.N())
	traversal.MultiSourceReach(g, sources, worklist)
	for v := range sweep {
		if sweep[v] != worklist[v] {
			t.Fatalf("sweep and worklist kernels disagree at vertex %d: %#x vs %#x",
				v, sweep[v], worklist[v])
		}
	}
	if traversal.CountWords(sweep) != traversal.CountWords(worklist) {
		t.Fatal("CountWords disagrees between kernels")
	}
}

// TestMultiSourceReachDeterministic runs the kernel twice over the same
// inputs and demands bit-identical words: the worklist order is a pure
// function of the graph and sources.
func TestMultiSourceReachDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 300, M: 1200, Seed: 9})
	sources := make([]graph.V, 64)
	rng := rand.New(rand.NewSource(10))
	for j := range sources {
		sources[j] = graph.V(rng.Intn(g.N()))
	}
	a := make([]uint64, g.N())
	b := make([]uint64, g.N())
	traversal.MultiSourceReach(g, sources, a)
	traversal.MultiSourceReach(g, sources, b)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("non-deterministic words at vertex %d", v)
		}
	}
}

func TestMultiSourceReachTooManySources(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 70, M: 100, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for > 64 sources")
		}
	}()
	traversal.MultiSourceReach(g, make([]graph.V, 65), make([]uint64, g.N()))
}

// TestPooledTraversalsAllocFree pins the scratch-pool contract for the
// query-path entry points: at steady state (pool warmed) they perform zero
// heap allocations.
func TestPooledTraversalsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; zero-alloc cannot hold")
	}
	g := gen.ErdosRenyi(gen.Config{N: 2000, M: 8000, Seed: 3})
	sources := []graph.V{1, 2, 3, 4, 5, 6, 7, 8}
	words := make([]uint64, g.N())
	set := bitset.New(g.N()) // the caller's reused set of the Into forms
	// Warm the pool before measuring.
	traversal.CountVisitedBFS(g, 0)
	traversal.MultiSourceReach(g, sources, words)
	checks := map[string]func(){
		"CountVisitedBFS": func() { traversal.CountVisitedBFS(g, 0) },
		"ReachableFromInto": func() {
			set.Reset()
			traversal.ReachableFromInto(g, 0, set)
		},
		"ReachingInto": func() {
			set.Reset()
			traversal.ReachingInto(g, 0, set)
		},
		"MultiSourceReach": func() {
			clear(words)
			traversal.MultiSourceReach(g, sources, words)
		},
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op at steady state, want 0", name, allocs)
		}
	}
}

// BenchmarkPooledReachable reports the allocation profile of the pooled
// full-reachability traversals (0 allocs/op once the pool is warm).
func BenchmarkPooledReachable(b *testing.B) {
	g := gen.ErdosRenyi(gen.Config{N: 20000, M: 80000, Seed: 3})
	b.Run("ReachableFromInto", func(b *testing.B) {
		b.ReportAllocs()
		set := bitset.New(g.N())
		for i := 0; i < b.N; i++ {
			set.Reset()
			traversal.ReachableFromInto(g, graph.V(i%g.N()), set)
		}
	})
	b.Run("ReachableFromRetained", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			traversal.ReachableFrom(g, graph.V(i%g.N()))
		}
	})
}

// BenchmarkMultiSourceReach compares one 64-source kernel sweep against 64
// sequential BFS traversals over the same sources — the work sharing the
// batch path builds on. The win scales with how much the per-source
// reachable sets overlap (their summed size over the union's): at 10
// edges/vertex the ratio is ~17 and the kernel wins ~6×; on very sparse
// DAGs (4 edges/vertex, ratio ~2) the shared sweep has nothing to share
// and roughly breaks even.
func BenchmarkMultiSourceReach(b *testing.B) {
	g := gen.RandomDAG(gen.Config{N: 50000, M: 500000, Seed: 8})
	rng := rand.New(rand.NewSource(12))
	sources := make([]graph.V, 64)
	for j := range sources {
		sources[j] = graph.V(rng.Intn(g.N()))
	}
	b.Run("kernel64", func(b *testing.B) {
		b.ReportAllocs()
		words := make([]uint64, g.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(words)
			traversal.MultiSourceReach(g, sources, words)
		}
	})
	b.Run("sequential64", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		set := bitset.New(g.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range sources {
				set.Reset()
				traversal.ReachableFromInto(g, s, set)
			}
		}
	})
}

package scratch_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scratch"
)

// pathPlusNoise is a DAG of n vertices whose first 8192 ids hold the same
// shape at every n — a path 0 → 64 → 128 → … of `hops` edges, one visited
// word per path vertex, each path vertex with two dead-end successors —
// and whose other vertices carry n/2 random forward edges that nothing on
// the path reaches.
func pathPlusNoise(n, hops int) *graph.Digraph {
	const shape = 8192
	b := graph.NewBuilder(n)
	for i := 0; i < hops; i++ {
		p := graph.V(i * 64)
		b.AddEdge(p, p+64)
		b.AddEdge(p, graph.V(shape/2+2*i))
		b.AddEdge(p, graph.V(shape/2+2*i+1))
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n/2; i++ {
		u, v := shape+rng.Intn(n-shape), shape+rng.Intn(n-shape)
		if u > v {
			u, v = v, u
		}
		if u != v {
			b.AddEdge(graph.V(u), graph.V(v))
		}
	}
	return b.MustFreeze()
}

// TestResetCostFollowsQueryNotGraph is the guard that cannot flake: it
// counts words, it does not time. A guided DFS whose filter decides
// nothing — the worst fallback — expands k vertices along the same path on
// a 10⁴- and a 10⁶-vertex DAG; the Get after it zeroes the same number of
// visited words on both, at most one per vertex the search marked
// (≤ 3k+1), where the dense clear zeroed 157 and 15625.
func TestResetCostFollowsQueryNotGraph(t *testing.T) {
	if scratch.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; the arena cannot be pinned")
	}
	// One P and no GC: Put → Get returns the same arena.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const hops = 12 // 13 touched words: under 1/8 of the smaller set's 157
	undecided := func(u, t graph.V) (bool, bool) { return false, false }
	var zeroed, expanded [2]int
	for i, n := range []int{10_000, 1_000_000} {
		g := pathPlusNoise(n, hops)
		sc := scratch.Get(n)
		before := sc.Zeroed()
		scratch.Put(sc)
		ok, k := core.CountingGuidedDFS(g, 0, hops*64, undecided)
		after := scratch.Get(n)
		if after != sc {
			t.Fatal("the pool handed out another arena; nothing was measured")
		}
		zeroed[i], expanded[i] = after.Zeroed()-before, k
		t.Logf("n=%d: %d expansions, %d words zeroed", n, k, zeroed[i])
		scratch.Put(after)
		if !ok || k < hops {
			t.Fatalf("n=%d: DFS = %v after %d expansions, want true after >= %d", n, ok, k, hops)
		}
		if zeroed[i] < hops || zeroed[i] > 3*k+1 {
			t.Errorf("n=%d: %d expansions, the next Get zeroed %d words, want %d..%d", n, k, zeroed[i], hops, 3*k+1)
		}
	}
	if zeroed[0] != zeroed[1] || expanded[0] != expanded[1] {
		t.Errorf("same query shape: %d words zeroed after %d expansions at n=10⁴, %d after %d at n=10⁶",
			zeroed[0], expanded[0], zeroed[1], expanded[1])
	}
}

package traversal

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/scratch"
)

// This file implements the bit-parallel multi-source BFS kernel: one
// sweep over the CSR arrays advances up to 64 sources at once, each
// owning one bit of a per-vertex uint64 reach word. It is the
// word-parallel counterpart of the per-pair searches above — the
// constant-factor direction PReaCH-style pruned BFS and the FELINE/IP
// line identify as where traversal time goes once an index has pruned
// what it can — and it backs the index-free BatchReach path and the
// exact transitive closure (tc.NewClosureN).

// WordSources is the number of sources one kernel sweep advances: the
// width of the per-vertex frontier word.
const WordSources = 64

// MultiSourceReach computes the forward reachable set of up to
// WordSources sources in one shared sweep: on return words[v] has bit j
// set iff v is reachable from sources[j] (sources reach themselves).
// words must have length g.N() and be zeroed; callers running at steady
// state draw it from the scratch arena (T.Words) so the kernel allocates
// nothing beyond its pooled stacks.
//
// The kernel must not let the 64 bits trickle through the graph one at a
// time — a naive worklist does, re-expanding a vertex per arriving bit
// and degenerating to the cost of 64 separate BFSs. Instead one combined
// DFS over the subgraph reachable from any source records a post-order,
// and the words are then propagated in reverse post-order — a topological
// order whenever the reachable subgraph is acyclic — so each vertex
// forwards its *final* word in one visit. On cyclic graphs a reverse
// post-order pass can miss propagation along back edges, so passes repeat
// until a pass changes nothing: the classic round-robin dataflow
// iteration, converging in 1 + the depth of cyclic dependency chains
// (1 pass on DAGs, 2–3 on typical diluted cyclic graphs) rather than 64.
func MultiSourceReach(g *graph.Digraph, sources []graph.V, words []uint64) {
	if len(sources) > WordSources {
		panic("traversal: MultiSourceReach wants at most 64 sources")
	}
	n := g.N()
	sc := scratch.Get(n)
	defer scratch.Put(sc)
	visited := sc.Visited()
	finished := sc.Visited2(n) // popped off the DFS stack
	stack := sc.Queue[:0]      // DFS stack of vertices
	child := sc.Aux[:0]        // per-frame next-successor index, parallel to stack
	order := sc.Queue2[:0]     // post-order of the reachable subgraph
	cyclic := false
	for j, s := range sources {
		words[s] |= 1 << uint(j)
		if visited.Test(int(s)) {
			continue
		}
		visited.Set(int(s))
		stack = append(stack, s)
		child = append(child, 0)
		for len(stack) > 0 {
			top := len(stack) - 1
			v := stack[top]
			succ := g.Succ(v)
			ci := int(child[top])
			for ci < len(succ) && visited.Test(int(succ[ci])) {
				// A back edge to a vertex still on the DFS stack (visited,
				// not yet finished) is the witness that the reachable
				// subgraph has a cycle (and so needs the fixpoint passes
				// below).
				if !cyclic && !finished.Test(int(succ[ci])) {
					cyclic = true
				}
				ci++
			}
			if ci < len(succ) {
				w := succ[ci]
				child[top] = graph.V(ci + 1)
				visited.Set(int(w))
				stack = append(stack, w)
				child = append(child, 0)
				continue
			}
			stack = stack[:top]
			child = child[:top]
			finished.Set(int(v))
			order = append(order, v)
		}
	}
	sc.Queue, sc.Aux, sc.Queue2 = stack, child, order
	for {
		changed := false
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			wv := words[v]
			for _, w := range g.Succ(v) {
				if words[w]|wv != words[w] {
					words[w] |= wv
					changed = true
				}
			}
		}
		// Acyclic reachable subgraph: reverse post-order is topological, so
		// the first pass is already the fixpoint — no verification needed.
		if !cyclic || !changed {
			return
		}
	}
}

// MultiSourceSweep is the DAG fast path of the kernel: it propagates the
// seeded words forward along edges in one pass over the given
// topological order (every vertex must appear before its successors).
// Callers seed words[s] |= 1<<j per source before the call; on return
// words[v] bit j is set iff some seeded vertex of bit j reaches v.
// Unlike MultiSourceReach it never revisits a vertex, so the cost is
// exactly one word-OR per edge whose tail carries any bit.
func MultiSourceSweep(g *graph.Digraph, order []graph.V, words []uint64) {
	for _, v := range order {
		wv := words[v]
		if wv == 0 {
			continue
		}
		for _, w := range g.Succ(v) {
			words[w] |= wv
		}
	}
}

// CountWords returns the total number of set bits across words — the
// number of (source, vertex) reachable pairs a kernel sweep certified;
// the closure builder and the E14 experiment report it.
func CountWords(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

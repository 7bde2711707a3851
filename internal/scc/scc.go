// Package scc implements Tarjan's strongly-connected-components algorithm
// (iteratively, so million-vertex graphs do not overflow the goroutine
// stack) and the condensation of a general digraph into a DAG.
//
// Per the paper's §3.1 ("From cyclic graphs to DAGs"), most reachability
// indexes assume a DAG: a general graph is reduced by coalescing every SCC
// into a representative vertex, and Qr(s,t) is answered by first checking
// whether s and t share an SCC, then consulting the DAG index.
package scc

import (
	"repro/internal/graph"
)

// Components computes the strongly connected components of g. The result
// assigns every vertex a component id in [0, Count); component ids are in
// reverse topological order of the condensation (i.e. if component a can
// reach component b in the condensation, then id(a) > id(b)), which is the
// order Tarjan's algorithm emits them in.
//
// The emission order is also a DFS postorder of the condensation, so it
// carries an interval per component: Min[c] is the number of components
// already emitted when the DFS discovered c's root. Every component
// emitted from then until c itself completed inside the root's DFS
// subtree, so every id in [Min[c], c] is reachable from c.
type Components struct {
	Comp  []uint32 // Comp[v] = component id of v
	Min   []uint32 // Min[c] = least id in c's DFS subtree; len Count
	Count int      // number of components
}

// Tarjan runs Tarjan's SCC algorithm on g, iteratively, in Pearce's
// one-word-per-vertex form ("A space-efficient algorithm for finding
// strongly connected components", IPL 2016). state[v] is 0 while v is
// unvisited, v's DFS index (from 1) while v is on the component stack,
// and n-1-k once v is in the k-th emitted component. Indexes are reused
// as components pop, so the active ones are exactly 1..A for the A
// vertices on the stack, and A <= n-F <= n-K for F finished vertices in K
// components: an active index never exceeds a finished number. So
// low = min(low, state[w]) takes one load per edge and needs no on-stack
// test, and a finished w never lowers low. A finished 0 (the n-th of n
// singleton components) can only be the last vertex to finish. The
// emission order, and so Comp, is classic Tarjan's. A frame also keeps
// the emitted count at its vertex's discovery, which becomes Min of the
// component the vertex roots.
func Tarjan(g *graph.Digraph) *Components {
	n := g.N()
	state := make([]uint32, n)
	// Both stacks hold at most n entries: sized once, never regrown.
	stack := make([]uint32, 0, n)
	// Explicit DFS frames: vertex, position within its successor list,
	// the least index seen from its subtree, and the number of components
	// emitted when the vertex was discovered.
	type frame struct{ v, ei, low, emitted uint32 }
	frames := make([]frame, 0, n)
	mins := make([]uint32, n) // at most n components
	next := uint32(1)         // the next DFS index
	var count uint32

	for root := 0; root < n; root++ {
		if state[root] != 0 {
			continue
		}
		state[root] = next
		frames = append(frames[:0], frame{v: uint32(root), low: next, emitted: count})
		next++
		stack = append(stack, uint32(root))

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v, ei, low := f.v, int(f.ei), f.low
			succ := g.Succ(v)
			for ; ei < len(succ); ei++ {
				s := state[succ[ei]]
				if s == 0 {
					break
				}
				low = min(low, s)
			}
			if ei < len(succ) {
				// Descend into the unvisited succ[ei].
				f.ei, f.low = uint32(ei)+1, low
				w := succ[ei]
				state[w] = next
				frames = append(frames, frame{v: w, low: next, emitted: count})
				next++
				stack = append(stack, w)
				continue
			}
			// v is finished.
			if low == state[v] {
				c := uint32(n) - 1 - count
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					state[w] = c
					next--
					if w == v {
						break
					}
				}
				mins[count] = f.emitted
				count++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low < p.low {
					p.low = low
				}
			}
		}
	}
	for v, s := range state {
		state[v] = uint32(n) - 1 - s
	}
	return &Components{Comp: state, Min: mins[:count:count], Count: int(count)}
}

// Condensation is the DAG obtained by coalescing each SCC of a general
// graph into one vertex, together with the vertex→component map needed to
// translate queries.
type Condensation struct {
	// DAG is the condensed graph; its vertex v corresponds to component v.
	DAG *graph.Digraph
	// Comp maps an original vertex to its DAG vertex.
	Comp []uint32
	// Min is Components.Min: every DAG vertex in [Min[c], c] is
	// reachable from c.
	Min []uint32
}

// Condense computes the condensation of g: Tarjan, then the quotient of
// g's CSR by the component ids, whose successor and predecessor sides are
// built on up to two of workers (the reach.Options.Workers convention:
// 0 = GOMAXPROCS, 1 = serial). Edge labels are preserved: a labeled edge
// (u, l, v) between distinct components becomes the labeled edge
// (comp(u), l, comp(v)) in the DAG (deduplicated), and the label universe
// stays g's even if some labels only occur inside SCCs. The result does
// not depend on workers.
func Condense(g *graph.Digraph, workers int) *Condensation {
	c := Tarjan(g)
	return &Condensation{DAG: graph.Quotient(g, c.Comp, c.Count, workers), Comp: c.Comp, Min: c.Min}
}

// SameComponent reports whether u and v are in the same SCC.
func (c *Condensation) SameComponent(u, v graph.V) bool {
	return c.Comp[u] == c.Comp[v]
}

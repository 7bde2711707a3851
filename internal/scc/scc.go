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
type Components struct {
	Comp  []uint32 // Comp[v] = component id of v
	Count int      // number of components
}

// Tarjan runs the iterative Tarjan SCC algorithm on g.
func Tarjan(g *graph.Digraph) *Components {
	n := g.N()
	const unvisited = ^uint32(0)
	index := make([]uint32, n)
	low := make([]uint32, n)
	comp := make([]uint32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	// Both stacks hold at most n entries: sized once, never regrown.
	stack := make([]uint32, 0, n)
	var next uint32
	var count uint32

	// Explicit DFS frames: vertex and position within its successor list.
	type frame struct {
		v  uint32
		ei uint32
	}
	frames := make([]frame, 0, n)

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: uint32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, uint32(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			succ := g.Succ(v)
			advanced := false
			for int(f.ei) < len(succ) {
				w := succ[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = count
					if w == v {
						break
					}
				}
				count++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return &Components{Comp: comp, Count: int(count)}
}

// Condensation is the DAG obtained by coalescing each SCC of a general
// graph into one vertex, together with the vertex→component map needed to
// translate queries.
type Condensation struct {
	// DAG is the condensed graph; its vertex v corresponds to component v.
	DAG *graph.Digraph
	// Comp maps an original vertex to its DAG vertex.
	Comp []uint32
}

// Condense computes the condensation of g: Tarjan, then the quotient of
// g's CSR by the component ids. Edge labels are preserved: a labeled edge
// (u, l, v) between distinct components becomes the labeled edge
// (comp(u), l, comp(v)) in the DAG (deduplicated), and the label universe
// stays g's even if some labels only occur inside SCCs.
func Condense(g *graph.Digraph) *Condensation {
	c := Tarjan(g)
	return &Condensation{DAG: graph.Quotient(g, c.Comp, c.Count), Comp: c.Comp}
}

// SameComponent reports whether u and v are in the same SCC.
func (c *Condensation) SameComponent(u, v graph.V) bool {
	return c.Comp[u] == c.Comp[v]
}

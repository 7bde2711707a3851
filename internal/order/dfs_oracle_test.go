package order

import (
	"math/rand"

	"repro/internal/graph"
)

// dfsForestOracle is the DFSForest its leaner form replaced: a visited
// array, a frame carrying its children slice and a propagated subtree
// minimum, one heap copy per shuffled vertex, an append-grown stack and a
// second copy of the walk for the unreached vertices. Kept as the
// reference DFSForest must equal, rng stream included.
func dfsForestOracle(g *graph.Digraph, roots []graph.V, rng *rand.Rand) *PostOrder {
	n := g.N()
	p := &PostOrder{
		Post:   make([]uint32, n),
		Min:    make([]uint32, n),
		Parent: make([]graph.V, n),
	}
	visited := make([]bool, n)
	var counter uint32

	type frame struct {
		v    graph.V
		kids []graph.V
		ki   int
		min  uint32
	}
	var stack []frame

	push := func(v graph.V, parent graph.V) {
		visited[v] = true
		p.Parent[v] = parent
		kids := g.Succ(v)
		if rng != nil && len(kids) > 1 {
			shuffled := make([]graph.V, len(kids))
			copy(shuffled, kids)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			kids = shuffled
		}
		stack = append(stack, frame{v: v, kids: kids, min: ^uint32(0)})
	}

	for _, root := range roots {
		if visited[root] {
			continue
		}
		push(root, root)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ki < len(f.kids) {
				w := f.kids[f.ki]
				f.ki++
				if !visited[w] {
					push(w, f.v)
				}
				continue
			}
			// finish f.v
			post := counter
			counter++
			min := f.min
			if min == ^uint32(0) {
				min = post
			}
			p.Post[f.v] = post
			p.Min[f.v] = min
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				pf := &stack[len(stack)-1]
				if min < pf.min {
					pf.min = min
				}
			}
		}
	}
	// Any vertex not reached from the given roots becomes its own root.
	for v := 0; v < n; v++ {
		if !visited[v] {
			push(graph.V(v), graph.V(v))
			for len(stack) > 0 {
				f := &stack[len(stack)-1]
				if f.ki < len(f.kids) {
					w := f.kids[f.ki]
					f.ki++
					if !visited[w] {
						push(w, f.v)
					}
					continue
				}
				post := counter
				counter++
				min := f.min
				if min == ^uint32(0) {
					min = post
				}
				p.Post[f.v] = post
				p.Min[f.v] = min
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					pf := &stack[len(stack)-1]
					if min < pf.min {
						pf.min = min
					}
				}
			}
		}
	}
	return p
}

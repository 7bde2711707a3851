package scc

import "repro/internal/graph"

// tarjanOracle is the classic iterative Tarjan that Pearce's
// one-word-per-vertex form replaced (separate index, low, comp and
// on-stack arrays), kept as the independent reference Tarjan must equal.
func tarjanOracle(g *graph.Digraph) *Components {
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

// Package order provides vertex orderings and numberings used by the index
// families: Kahn topological sort and topological levels (TFL, Feline,
// PReaCH, O'Reach), degree orders (DL, PLL, P2H+, landmark selection),
// random orders (GRAIL's random spanning trees), and DFS pre/post interval
// numberings (the tree-cover family, BFL, PReaCH).
package order

import (
	"math/rand"
	"sort"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// Topological returns a topological order of the DAG g (vertices before
// their successors) and reports false if g has a cycle.
func Topological(g *graph.Digraph) ([]graph.V, bool) {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		for _, w := range g.Succ(graph.V(v)) {
			indeg[w]++
		}
	}
	queue := make([]graph.V, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, graph.V(v))
		}
	}
	out := make([]graph.V, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		for _, w := range g.Succ(v) {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return out, len(out) == n
}

// IsDAG reports whether g is acyclic.
func IsDAG(g *graph.Digraph) bool {
	_, ok := Topological(g)
	return ok
}

// Rank inverts an order: Rank(o)[v] = position of v in o.
func Rank(o []graph.V) []uint32 {
	r := make([]uint32, len(o))
	for i, v := range o {
		r[v] = uint32(i)
	}
	return r
}

// Levels returns the topological level of each vertex of a DAG: sources are
// level 0 and level(v) = 1 + max level over predecessors. The second return
// is the number of levels. Used as a cheap negative filter: if
// level(s) >= level(t) and s != t then t is unreachable from s... only when
// levels are computed forward; callers use it in that direction.
//
// Where the ids already are a topological order, as in a condensation
// (every edge points to a lower id) or its reverse (to a higher one), one
// sweep in that order computes the levels; otherwise Kahn's Topological
// supplies the order. Longest-path levels do not depend on which
// topological order computes them, so the result is the same either way.
func Levels(g *graph.Digraph) ([]uint32, int) {
	lev := make([]uint32, g.N())
	if max, ok := sweepLevels(g, lev); ok {
		return lev, int(max) + 1
	}
	clear(lev)
	topo, _ := Topological(g)
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

// sweepLevels fills lev by visiting the ids in the direction g's first
// edge runs, descending if it points to a lower id and ascending
// otherwise, and returns the highest level. It reports false, with lev
// partly written, at the first edge that does not run that way.
func sweepLevels(g *graph.Digraph, lev []uint32) (uint32, bool) {
	n := g.N()
	down := false
	for v := 0; v < n; v++ {
		if s := g.Succ(graph.V(v)); len(s) > 0 {
			down = s[0] < graph.V(v)
			break
		}
	}
	max := uint32(0)
	for i := 0; i < n; i++ {
		v := graph.V(i)
		if down {
			v = graph.V(n - 1 - i)
		}
		lv := lev[v]
		for _, w := range g.Succ(v) {
			if w == v || (w < v) != down {
				return 0, false
			}
			if lv+1 > lev[w] {
				lev[w] = lv + 1
			}
		}
		if lv > max {
			max = lv
		}
	}
	return max, true
}

// LevelBuckets groups the vertices of a DAG by topological level (see
// Levels), vertices in ascending id order within each bucket. No edge
// connects two vertices of the same bucket and every edge goes from a
// lower bucket to a strictly higher one, so the buckets are the schedule
// of a level-synchronized parallel sweep (par.Sweep): ascending for
// predecessor-propagation passes, Reversed for successor-propagation
// ones. All buckets share one backing array.
func LevelBuckets(g *graph.Digraph) [][]graph.V {
	lev, nl := Levels(g)
	counts := make([]int, nl)
	for _, l := range lev {
		counts[l]++
	}
	backing := make([]graph.V, g.N())
	buckets := make([][]graph.V, nl)
	off := 0
	for l, c := range counts {
		buckets[l] = backing[off : off : off+c]
		off += c
	}
	for v := 0; v < g.N(); v++ {
		l := lev[v]
		buckets[l] = append(buckets[l], graph.V(v))
	}
	return buckets
}

// Reversed returns a view of the buckets in reverse order (the backing
// per-bucket slices are shared, not copied).
func Reversed(buckets [][]graph.V) [][]graph.V {
	out := make([][]graph.V, len(buckets))
	for i := range buckets {
		out[i] = buckets[len(buckets)-1-i]
	}
	return out
}

// ByDegreeDesc returns the vertices sorted by total degree, highest first,
// ties broken by vertex id. This is the total order used by DL/PLL/P2H+.
func ByDegreeDesc(g *graph.Digraph) []graph.V {
	vs := make([]graph.V, g.N())
	for i := range vs {
		vs[i] = graph.V(i)
	}
	sort.Slice(vs, func(i, j int) bool {
		di, dj := g.Degree(vs[i]), g.Degree(vs[j])
		if di != dj {
			return di > dj
		}
		return vs[i] < vs[j]
	})
	return vs
}

// ByDegreeProductDesc orders by in-degree x out-degree (descending), the
// classic TOL/landmark ranking that prefers vertices lying on many paths.
func ByDegreeProductDesc(g *graph.Digraph) []graph.V {
	vs := make([]graph.V, g.N())
	for i := range vs {
		vs[i] = graph.V(i)
	}
	key := func(v graph.V) int { return (g.InDegree(v) + 1) * (g.OutDegree(v) + 1) }
	sort.Slice(vs, func(i, j int) bool {
		ki, kj := key(vs[i]), key(vs[j])
		if ki != kj {
			return ki > kj
		}
		return vs[i] < vs[j]
	})
	return vs
}

// Random returns a uniformly random permutation of the vertices.
func Random(n int, rng *rand.Rand) []graph.V {
	vs := make([]graph.V, n)
	for i := range vs {
		vs[i] = graph.V(i)
	}
	rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// PostOrder holds DFS interval numbering of a spanning forest: for each
// vertex, Post[v] is its post-order number and Min[v] is the smallest
// post-order number in its subtree, so the subtree of v is exactly the
// vertices with post number in [Min[v], Post[v]]. Parent[v] is the spanning
// forest parent (self for roots). This is the §3.1 interval labeling for
// trees.
type PostOrder struct {
	Post   []uint32
	Min    []uint32
	Parent []graph.V
}

// Contains reports whether t lies in the subtree of s.
func (p *PostOrder) Contains(s, t graph.V) bool {
	return p.Min[s] <= p.Post[t] && p.Post[t] <= p.Post[s]
}

// DFSForest computes a spanning forest of the DAG g by depth-first search
// and its post-order interval numbering. Roots are tried in the given
// order, then every vertex still unreached, in id order, becomes a root
// of its own; children are visited in the order their edges appear,
// optionally shuffled by rng (GRAIL's randomized spanning trees, each
// vertex's successors shuffled into its own run of one m-entry arena when
// it is pushed). The traversal is iterative and allocates its result, one
// n-frame stack and, with rng, the arena. A subtree's post numbers are
// contiguous, so Min[v] is the post counter when v is pushed.
func DFSForest(g *graph.Digraph, roots []graph.V, rng *rand.Rand) *PostOrder {
	n := g.N()
	p := &PostOrder{
		Post:   make([]uint32, n),
		Min:    make([]uint32, n),
		Parent: make([]graph.V, n),
	}
	// One bit per vertex: the per-edge test reads n/8 bytes, not n words.
	seen := bitset.New(n)
	var arena []graph.V
	if rng != nil {
		arena = make([]graph.V, 0, g.M())
	}
	// A frame is a vertex, its next child's position and, with rng, the
	// start of its shuffled successors in arena.
	type frame struct {
		v        graph.V
		ki, base uint32
	}
	stack := make([]frame, 0, n)
	var counter uint32
	push := func(v, parent graph.V) {
		seen.Set(int(v))
		p.Parent[v] = parent
		p.Min[v] = counter
		base := uint32(len(arena))
		if rng != nil {
			arena = append(arena, g.Succ(v)...)
			if kids := arena[base:]; len(kids) > 1 {
				rng.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
			}
		}
		stack = append(stack, frame{v: v, base: base})
	}

	for i := 0; i < len(roots)+n; i++ {
		root := graph.V(i - len(roots))
		if i < len(roots) {
			root = roots[i]
		}
		if seen.Test(int(root)) {
			continue
		}
		push(root, root)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			kids := g.Succ(f.v)
			if rng != nil {
				kids = arena[f.base : int(f.base)+len(kids)]
			}
			ki := int(f.ki)
			for ki < len(kids) && seen.Test(int(kids[ki])) {
				ki++
			}
			if ki < len(kids) {
				f.ki = uint32(ki) + 1
				push(kids[ki], f.v)
				continue
			}
			p.Post[f.v] = counter
			counter++
			stack = stack[:len(stack)-1]
		}
	}
	return p
}

// Sources returns the vertices of g with in-degree zero, in id order.
// For a DAG these are the natural spanning-forest roots.
func Sources(g *graph.Digraph) []graph.V {
	var out []graph.V
	for v := 0; v < g.N(); v++ {
		if g.InDegree(graph.V(v)) == 0 {
			out = append(out, graph.V(v))
		}
	}
	return out
}

// Sinks returns the vertices of g with out-degree zero, in id order.
func Sinks(g *graph.Digraph) []graph.V {
	var out []graph.V
	for v := 0; v < g.N(); v++ {
		if g.OutDegree(graph.V(v)) == 0 {
			out = append(out, graph.V(v))
		}
	}
	return out
}

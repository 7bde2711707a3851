// Package treecover implements the original tree-cover reachability index
// of Agrawal, Borgida and Jagadish [2] (§3.1): interval labeling over a
// spanning forest of the DAG plus interval inheritance along non-tree
// edges, yielding a complete index.
//
// Construction: a DFS spanning forest assigns every vertex its subtree
// post-order interval; vertices are then examined in reverse topological
// order, each inheriting the full interval lists of its successors
// (adjacent intervals merge). Qr(s, t) holds iff post(t) falls in one of
// s's intervals.
//
// The paper notes the optimal tree cover (minimum total interval count) is
// as hard as computing TC itself; this implementation uses the standard
// DFS forest, which is the practical choice the follow-up literature
// compares against.
package treecover

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/order"
)

// Heuristic selects the spanning-tree shape. The paper notes the optimal
// tree cover minimizes the interval count but costs as much as TC itself;
// these are the practical stand-ins.
type Heuristic int

// Spanning-tree heuristics.
const (
	// HeuristicDFS: plain DFS spanning forest (the default used by the
	// follow-up literature's comparisons).
	HeuristicDFS Heuristic = iota
	// HeuristicFatSubtree approximates Agrawal et al.'s optimal cover by
	// attaching every vertex to the incoming tree parent with the largest
	// descendant count, so big subtrees fall under single intervals.
	HeuristicFatSubtree
)

// Index is the complete tree-cover index over a DAG.
type Index struct {
	post  []uint32
	lists []*interval.List
	stats core.Stats
}

// New builds the tree-cover index with the DFS heuristic. The input must
// be a DAG (reach.Build lifts it to general graphs).
func New(dag *graph.Digraph) *Index { return NewWithHeuristic(dag, HeuristicDFS) }

// NewWithHeuristic builds the tree-cover index with a chosen spanning-
// tree heuristic.
func NewWithHeuristic(dag *graph.Digraph, h Heuristic) *Index {
	start := time.Now()
	n := dag.N()
	var po *order.PostOrder
	if h == HeuristicFatSubtree {
		po = fatSubtreeForest(dag)
	} else {
		po = order.DFSForest(dag, order.Sources(dag), nil)
	}
	lists := make([]*interval.List, n)
	for v := 0; v < n; v++ {
		lists[v] = &interval.List{}
		lists[v].Add(po.Min[v], po.Post[v])
	}
	topo, _ := order.Topological(dag)
	// Reverse topological order: successors' lists are final when
	// inherited (transitivity of reachability).
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		for _, w := range dag.Succ(v) {
			lists[v].AddList(lists[w])
		}
	}
	idx := &Index{post: po.Post, lists: lists}
	entries := 0
	for _, l := range lists {
		entries += l.Len()
	}
	idx.stats = core.Stats{
		Entries:   entries,
		Bytes:     entries*8 + n*4,
		BuildTime: time.Since(start),
	}
	return idx
}

// fatSubtreeForest picks, for every vertex, the parent whose subtree of
// already-descendant mass is largest: process vertices in reverse
// topological order computing descendant counts, then choose each
// vertex's tree parent as the predecessor with the largest count tie-
// broken to the smallest id, and finally post-order the resulting forest.
func fatSubtreeForest(dag *graph.Digraph) *order.PostOrder {
	n := dag.N()
	topo, _ := order.Topological(dag)
	// Approximate descendant counts (double-counts shared descendants —
	// it is a heuristic weight, not an exact measure).
	weight := make([]float64, n)
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		weight[v] = 1
		for _, w := range dag.Succ(v) {
			weight[v] += weight[w]
		}
	}
	// Parent choice: the heaviest vertex among predecessors.
	parent := make([]graph.V, n)
	children := make([][]graph.V, n)
	for v := 0; v < n; v++ {
		parent[v] = graph.V(v)
		best := -1.0
		for _, p := range dag.Pred(graph.V(v)) {
			if weight[p] > best {
				best = weight[p]
				parent[v] = p
			}
		}
	}
	for v := 0; v < n; v++ {
		if parent[v] != graph.V(v) {
			children[parent[v]] = append(children[parent[v]], graph.V(v))
		}
	}
	// Iterative post-order over the chosen forest.
	po := &order.PostOrder{
		Post:   make([]uint32, n),
		Min:    make([]uint32, n),
		Parent: parent,
	}
	var counter uint32
	type frame struct {
		v   graph.V
		ci  int
		min uint32
	}
	var stack []frame
	for r := 0; r < n; r++ {
		if parent[r] != graph.V(r) {
			continue
		}
		stack = append(stack[:0], frame{v: graph.V(r), min: ^uint32(0)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ci < len(children[f.v]) {
				c := children[f.v][f.ci]
				f.ci++
				stack = append(stack, frame{v: c, min: ^uint32(0)})
				continue
			}
			post := counter
			counter++
			min := f.min
			if min == ^uint32(0) {
				min = post
			}
			po.Post[f.v] = post
			po.Min[f.v] = min
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				pf := &stack[len(stack)-1]
				if min < pf.min {
					pf.min = min
				}
			}
		}
	}
	return po
}

// Name implements core.Index.
func (ix *Index) Name() string { return "TreeCover" }

// Reach reports whether t is reachable from s.
func (ix *Index) Reach(s, t graph.V) bool {
	return ix.lists[s].Contains(ix.post[t])
}

// Stats implements core.Index.
func (ix *Index) Stats() core.Stats { return ix.stats }

// Intervals exposes the per-vertex interval count; the E9 ablation reports
// its distribution.
func (ix *Index) Intervals(v graph.V) int { return ix.lists[v].Len() }

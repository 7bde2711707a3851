package advise

import (
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// GraphProfile is the structural feature vector the rule table consumes,
// computed off the shared PreparedGraph memo (the condensation runs at
// most once per DB regardless of the advisor).
type GraphProfile struct {
	N       int  `json:"n"`
	M       int  `json:"m"`
	Labeled bool `json:"labeled,omitempty"`

	// SCC structure: SCCs is the condensation's vertex count,
	// LargestSCC the biggest component, CyclicMass the fraction of
	// vertices inside non-trivial (size ≥ 2) components. A DAG has
	// SCCs == N and CyclicMass 0.
	SCCs       int     `json:"sccs"`
	LargestSCC int     `json:"largest_scc"`
	CyclicMass float64 `json:"cyclic_mass"`

	// Degree distribution of the graph itself (not the condensation):
	// heavy tails (large Skew) are the regime of degree-ordered 2-hop.
	OutDegree gen.DegreeStats `json:"out_degree"`
	InDegree  gen.DegreeStats `json:"in_degree"`

	// Longest-path layering of the condensation DAG: Depth is the number
	// of levels, Width the largest level. Deep-and-narrow favors
	// interval/tree indexes; shallow-and-wide favors pruned 2-hop.
	Depth int `json:"depth"`
	Width int `json:"width"`

	// NonTreeShare is the fraction of condensation edges beyond a
	// spanning forest — near 0 means tree-like, the dual-labeling /
	// path-tree regime.
	NonTreeShare float64 `json:"non_tree_share"`

	Labels gen.LabelStats `json:"labels"`
}

// ProfileGraph computes the feature vector for prep's graph.
func ProfileGraph(prep *core.Prepared) GraphProfile {
	g := prep.Graph()
	p := GraphProfile{
		N:         g.N(),
		M:         g.M(),
		Labeled:   g.Labeled(),
		OutDegree: gen.OutDegrees(g),
		InDegree:  gen.InDegrees(g),
		Labels:    gen.AnalyzeLabels(g),
	}
	if g.N() == 0 {
		return p
	}
	cond, _ := prep.Condensation()
	dag := cond.DAG
	p.SCCs = dag.N()
	size := make([]int, dag.N())
	for _, c := range cond.Comp {
		size[c]++
	}
	inCyc := 0
	for _, sz := range size {
		if sz > p.LargestSCC {
			p.LargestSCC = sz
		}
		if sz >= 2 {
			inCyc += sz
		}
	}
	p.CyclicMass = float64(inCyc) / float64(g.N())
	p.Depth, p.Width = layering(dag)
	if m := dag.M(); m > 0 {
		extra := m - (dag.N() - 1)
		if extra < 0 {
			extra = 0
		}
		p.NonTreeShare = float64(extra) / float64(m)
	}
	return p
}

// layering computes the longest-path level of every vertex of a DAG via
// one pass in topological order (Kahn), returning the level count and
// the widest level's size.
func layering(dag *graph.Digraph) (depth, width int) {
	n := dag.N()
	if n == 0 {
		return 0, 0
	}
	indeg := make([]int, n)
	queue := make([]graph.V, 0, n)
	for v := 0; v < n; v++ {
		indeg[v] = dag.InDegree(graph.V(v))
		if indeg[v] == 0 {
			queue = append(queue, graph.V(v))
		}
	}
	level := make([]int, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range dag.Succ(v) {
			if l := level[v] + 1; l > level[w] {
				level[w] = l
			}
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	maxLevel := 0
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	counts := make([]int, maxLevel+1)
	for _, l := range level {
		counts[l]++
	}
	for _, c := range counts {
		if c > width {
			width = c
		}
	}
	return maxLevel + 1, width
}

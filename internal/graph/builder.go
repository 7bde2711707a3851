package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Builder accumulates vertices and edges and produces an immutable Digraph.
// It deduplicates parallel edges with identical labels and sorts adjacency,
// which the CSR binary searches rely on.
type Builder struct {
	n         int
	edges     []Edge
	labeled   bool
	numLabels int
	labelIDs  map[string]Label
	labelName []string
	vertIDs   map[string]V
	vertName  []string
}

// NewBuilder returns a Builder for a graph with n pre-declared vertices
// (0..n-1). More vertices may be added implicitly by AddEdge or explicitly
// by AddVertex.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NewLabeledBuilder returns a Builder for an edge-labeled graph.
func NewLabeledBuilder(n int) *Builder {
	return &Builder{n: n, labeled: true}
}

// N returns the current number of vertices.
func (b *Builder) N() int { return b.n }

// AddVertex allocates and returns a fresh vertex id.
func (b *Builder) AddVertex() V {
	v := V(b.n)
	b.n++
	return v
}

// NamedVertex returns the vertex with the given name, allocating it on first
// use. Mixing NamedVertex with AddVertex is allowed.
func (b *Builder) NamedVertex(name string) V {
	if b.vertIDs == nil {
		b.vertIDs = make(map[string]V)
	}
	if v, ok := b.vertIDs[name]; ok {
		return v
	}
	v := b.AddVertex()
	b.vertIDs[name] = v
	for len(b.vertName) <= int(v) {
		b.vertName = append(b.vertName, "")
	}
	b.vertName[v] = name
	return v
}

// LabelID returns the label id for the given name, allocating it on first
// use. Panics if the label universe would exceed MaxLabels.
func (b *Builder) LabelID(name string) Label {
	if b.labelIDs == nil {
		b.labelIDs = make(map[string]Label)
	}
	if l, ok := b.labelIDs[name]; ok {
		return l
	}
	if b.numLabels >= MaxLabels {
		panic(fmt.Sprintf("graph: label universe exceeds %d labels", MaxLabels))
	}
	l := Label(b.numLabels)
	b.numLabels++
	b.labelIDs[name] = l
	b.labelName = append(b.labelName, name)
	b.labeled = true
	return l
}

// TryLabelID is LabelID for untrusted input: instead of panicking when the
// label universe would exceed MaxLabels it returns ErrTooManyLabels, so
// parsers (graph.Read) can reject a hostile edge list with an error.
func (b *Builder) TryLabelID(name string) (Label, error) {
	if b.labelIDs != nil {
		if l, ok := b.labelIDs[name]; ok {
			return l, nil
		}
	}
	if b.numLabels >= MaxLabels {
		return 0, ErrTooManyLabels
	}
	return b.LabelID(name), nil
}

// ReserveLabels declares the label universe to contain at least k labels,
// even if some never occur on edges (e.g. after condensing a labeled graph
// whose rare labels only appeared inside SCCs).
func (b *Builder) ReserveLabels(k int) {
	if k > b.numLabels {
		b.numLabels = k
	}
	if k > 0 {
		b.labeled = true
	}
}

// AddEdge adds the directed edge (u, v). Vertices are allocated implicitly
// if u or v exceed the current vertex count.
func (b *Builder) AddEdge(u, v V) {
	b.ensure(u)
	b.ensure(v)
	b.edges = append(b.edges, Edge{From: u, To: v})
}

// AddLabeledEdge adds the directed edge (u, v) with label l.
func (b *Builder) AddLabeledEdge(u, v V, l Label) {
	b.ensure(u)
	b.ensure(v)
	b.labeled = true
	if int(l) >= b.numLabels {
		b.numLabels = int(l) + 1
	}
	b.edges = append(b.edges, Edge{From: u, To: v, Label: l})
}

// AddNamedEdge adds an edge between named vertices with a named label.
func (b *Builder) AddNamedEdge(from, label, to string) {
	u, v := b.NamedVertex(from), b.NamedVertex(to)
	b.AddLabeledEdge(u, v, b.LabelID(label))
}

func (b *Builder) ensure(v V) {
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
}

// ErrTooManyLabels is returned by Freeze when a labeled graph declares more
// than MaxLabels labels.
var ErrTooManyLabels = errors.New("graph: label universe exceeds 64 labels")

// cmpEdge orders edges by (From, To, Label) — the CSR layout order.
func cmpEdge(a, b Edge) int {
	switch {
	case a.From != b.From:
		if a.From < b.From {
			return -1
		}
		return 1
	case a.To != b.To:
		if a.To < b.To {
			return -1
		}
		return 1
	case a.Label != b.Label:
		if a.Label < b.Label {
			return -1
		}
		return 1
	}
	return 0
}

// Freeze sorts, deduplicates and lays out the accumulated edges as an
// immutable CSR Digraph.
func (b *Builder) Freeze() (*Digraph, error) {
	if b.labeled && b.numLabels > MaxLabels {
		return nil, ErrTooManyLabels
	}
	es := b.edges
	// SortFunc works on the concrete []Edge — no per-comparison interface
	// dispatch the reflect-based sort.Slice paid — and the IsSortedFunc
	// pre-check makes re-freezing an already-ordered edge list (Mutate or
	// Patched of a frozen graph, order-preserving RemoveEdge) a linear scan.
	if !slices.IsSortedFunc(es, cmpEdge) {
		slices.SortFunc(es, cmpEdge)
	}
	// Deduplicate identical (from, to, label) triples.
	dedup := es[:0]
	for i, e := range es {
		if i > 0 && e == es[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	es = dedup

	g := &Digraph{n: b.n, m: len(es), numLabels: b.numLabels,
		labelName: b.labelName, vertName: b.vertName, names: &nameIndex{}}
	g.succOff = make([]uint32, b.n+1)
	g.predOff = make([]uint32, b.n+1)
	g.succ = make([]V, len(es))
	g.pred = make([]V, len(es))
	if b.labeled {
		g.succLab = make([]Label, len(es))
		g.predLab = make([]Label, len(es))
	}
	for _, e := range es {
		g.succOff[e.From+1]++
		g.predOff[e.To+1]++
	}
	for v := 0; v < b.n; v++ {
		g.succOff[v+1] += g.succOff[v]
		g.predOff[v+1] += g.predOff[v]
	}
	fill := make([]uint32, b.n)
	for _, e := range es {
		i := g.succOff[e.From] + fill[e.From]
		fill[e.From]++
		g.succ[i] = e.To
		if b.labeled {
			g.succLab[i] = e.Label
		}
	}
	for i := range fill {
		fill[i] = 0
	}
	// Edges are sorted by From, so filling pred in this order yields
	// pred lists sorted by predecessor id.
	for _, e := range es {
		i := g.predOff[e.To] + fill[e.To]
		fill[e.To]++
		g.pred[i] = e.From
		if b.labeled {
			g.predLab[i] = e.Label
		}
	}
	return g, nil
}

// MustFreeze is Freeze that panics on error; for tests and generators whose
// inputs are valid by construction.
func (b *Builder) MustFreeze() *Digraph {
	g, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds an unlabeled digraph with n vertices from an edge list.
func FromEdges(n int, edges [][2]V) *Digraph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustFreeze()
}

// Mutate returns a Builder pre-loaded with g's vertices and edges, for
// producing a modified copy (used by dynamic-index tests to rebuild
// oracles after updates).
func Mutate(g *Digraph) *Builder {
	return Patched(g, nil, nil)
}

// Patched returns a Builder pre-loaded with g's vertices and g's edges
// minus removed plus added: the fold of a mutation overlay into its base.
// Both lists are in (From, To, Label) order. One merge pass over the CSR
// — O(m + |removed| + |added|) whatever the number of removals — and the
// edge list comes out in CSR order, so Freeze skips its sort.
func Patched(g *Digraph, removed, added []Edge) *Builder {
	b := NewBuilder(g.N())
	b.labeled = g.Labeled()
	b.numLabels = g.Labels()
	b.labelName = g.labelName
	b.vertName = g.vertName
	if g.vertName != nil {
		b.vertIDs = make(map[string]V)
		for v, name := range g.vertName {
			if name != "" {
				b.vertIDs[name] = V(v)
			}
		}
	}
	if g.labelName != nil {
		b.labelIDs = make(map[string]Label)
		for l, name := range g.labelName {
			if name != "" {
				b.labelIDs[name] = Label(l)
			}
		}
	}
	b.edges, _ = patchEdges(g, removed, added)
	return b
}

// patchEdges is the merge behind Patched. steps counts the loop
// iterations, for the test that pins the pass as linear.
func patchEdges(g *Digraph, removed, added []Edge) (es []Edge, steps int) {
	es = make([]Edge, 0, g.m+len(added))
	g.Edges(func(e Edge) bool {
		steps++
		for len(added) > 0 && cmpEdge(added[0], e) < 0 {
			es = append(es, added[0])
			added = added[1:]
			steps++
		}
		for len(removed) > 0 && cmpEdge(removed[0], e) < 0 {
			removed = removed[1:]
			steps++
		}
		if len(removed) == 0 || removed[0] != e {
			es = append(es, e)
		}
		return true
	})
	return append(es, added...), steps + len(added)
}

// RemoveEdge deletes every occurrence of the exact edge e from the
// builder and reports whether at least one was present. Removing all
// occurrences (not just the first) is what makes remove mean "the edge
// is gone": a builder fed duplicate AddEdge calls — or a self-loop added
// twice — would otherwise still freeze into a graph containing e, and an
// add/remove/add sequence driven through the mutation overlay would
// diverge from the graph it claims to describe. The removal preserves
// edge order (no swap-with-last), so a builder loaded from a frozen
// graph (Mutate) keeps its sorted edge list and the next Freeze skips
// sorting entirely instead of re-sorting to repair displaced elements.
func (b *Builder) RemoveEdge(e Edge) bool {
	kept := b.edges[:0]
	for _, x := range b.edges {
		if x != e {
			kept = append(kept, x)
		}
	}
	removed := len(kept) < len(b.edges)
	b.edges = kept
	return removed
}

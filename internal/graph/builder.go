package graph

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/par"
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

// Freeze deduplicates and lays out the accumulated edges as an immutable
// CSR Digraph in O(n + m): a counting scatter by source, then csr.
func (b *Builder) Freeze() (*Digraph, error) {
	g, _, err := b.freeze()
	return g, err
}

// freeze is Freeze; sorts counts the rows csr had to sort, for the test
// that pins an already-ordered edge list as a linear scan.
func (b *Builder) freeze() (g *Digraph, sorts int, err error) {
	if b.labeled && b.numLabels > MaxLabels {
		return nil, 0, ErrTooManyLabels
	}
	// Row v counts into off[v+2]: after the prefix sum off[v+1] is row
	// v's start, after the scatter its end, so off[:n+1] needs no shift.
	off := make([]uint32, b.n+2)
	for _, e := range b.edges {
		off[e.From+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	keys := make([]uint64, len(b.edges))
	for _, e := range b.edges {
		keys[off[e.From+1]] = uint64(e.To)<<16 | uint64(e.Label)
		off[e.From+1]++
	}
	g, sorts = csr(b.n, off[:b.n+1], keys, b.labeled)
	g.numLabels, g.labelName, g.vertName = b.numLabels, b.labelName, b.vertName
	return g, sorts, nil
}

// Quotient returns the graph of g's vertex classes: class[v] in
// [0, count) is v's vertex in the result, edges inside one class are
// dropped, and parallel edges between two classes merge into one per
// label. The label universe is g's. Built straight from g's CSR in
// O(n + m), its successor and predecessor sides at once on up to two of
// workers (0 = GOMAXPROCS, 1 = serial): both sides dedup the same
// (from, to, label) set, so the result does not depend on workers. It is
// the condensation once class is an SCC numbering.
func Quotient(g *Digraph, class []uint32, count, workers int) *Digraph {
	q := &Digraph{n: count, numLabels: g.numLabels, names: &nameIndex{}}
	par.Do(workers, 2, func(i int) {
		if i == 0 {
			q.succOff, q.succ, q.succLab = quotientSide(g.succOff, g.succ, g.succLab, class, count)
		} else {
			q.predOff, q.pred, q.predLab = quotientSide(g.predOff, g.pred, g.predLab, class, count)
		}
	})
	q.m = len(q.succ)
	return q
}

// quotientSide is one side of Quotient over the CSR rows adj[off[u]:
// off[u+1]] (labels lab, nil when unlabeled): row class[u] collects
// uint64(class[x])<<16|label for every neighbour x of u in another class,
// and pack sorts, dedups and compacts the rows. A row's room is the
// summed degree of its class's members, so no pass counts edges.
func quotientSide(off []uint32, adj []V, lab []Label, class []uint32, count int) ([]uint32, []V, []Label) {
	qoff := make([]uint32, count+1)
	for u, c := range class {
		qoff[c+1] += off[u+1] - off[u]
	}
	for c := 0; c < count; c++ {
		qoff[c+1] += qoff[c]
	}
	fill := slices.Clone(qoff[:count])
	keys := make([]uint64, qoff[count])
	for u, cu := range class {
		pos := fill[cu]
		for i := off[u]; i < off[u+1]; i++ {
			if cx := class[adj[i]]; cx != cu {
				k := uint64(cx) << 16
				if lab != nil {
					k |= uint64(lab[i])
				}
				keys[pos] = k
				pos++
			}
		}
		fill[cu] = pos
	}
	qadj, qlab, _ := pack(qoff, fill, keys, lab != nil)
	return qoff, qadj, qlab
}

// pack lays out rows of uint64(V)<<16|Label keys, row v being
// keys[off[v]:end[v]] for v < len(off)-1: each row is sorted unless it
// already is, deduplicated and compacted to the front of keys, off is
// rewritten to the packed offsets, and the keys are split into vertex
// and (when labeled) label arrays. end may alias off[1:]. sorts counts
// the rows it had to sort.
func pack(off, end []uint32, keys []uint64, labeled bool) (adj []V, lab []Label, sorts int) {
	rows := len(off) - 1
	m := 0
	for v := 0; v < rows; v++ {
		row := keys[off[v]:end[v]]
		if !slices.IsSorted(row) {
			slices.Sort(row)
			sorts++
		}
		off[v] = uint32(m)
		m += copy(keys[m:], slices.Compact(row))
	}
	off[rows] = uint32(m)
	adj = make([]V, m)
	if labeled {
		lab = make([]Label, m)
	}
	for i, k := range keys[:m] {
		adj[i] = V(k >> 16)
		if labeled {
			lab[i] = Label(k)
		}
	}
	return adj, lab, sorts
}

// csr lays out n rows of uint64(To)<<16|Label keys, row v being
// keys[off[v]:off[v+1]], as a Digraph owning off: pack lays out the
// successor side, and the reverse CSR is filled in ascending source
// order, so it comes out sorted too. sorts counts the rows pack sorted.
func csr(n int, off []uint32, keys []uint64, labeled bool) (g *Digraph, sorts int) {
	succ, succLab, sorts := pack(off, off[1:], keys, labeled)
	m := len(succ)
	g = &Digraph{n: n, m: m, succOff: off, succ: succ, succLab: succLab,
		predOff: make([]uint32, n+1), pred: make([]V, m), names: &nameIndex{}}
	if labeled {
		g.predLab = make([]Label, m)
	}
	for _, t := range succ {
		g.predOff[t+1]++
	}
	for v := 0; v < n; v++ {
		g.predOff[v+1] += g.predOff[v]
	}
	fill := slices.Clone(g.predOff[:n])
	for u := 0; u < n; u++ {
		for i := off[u]; i < off[u+1]; i++ {
			t := succ[i]
			g.pred[fill[t]] = V(u)
			if labeled {
				g.predLab[fill[t]] = succLab[i]
			}
			fill[t]++
		}
	}
	return g, sorts
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
// edge list comes out in CSR order, so Freeze finds every row sorted.
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
// diverge from the graph it claims to describe. The removal keeps the
// remaining edges in order, though Freeze does not depend on it: it
// sorts only the rows it finds out of order.
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

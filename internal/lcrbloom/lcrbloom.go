// Package lcrbloom prototypes the paper's §5 open challenge: "it would be
// interesting to have a partial index without false negatives for
// path-constrained reachability queries". No such index exists in the
// surveyed literature (the landmark index is partial *without false
// positives*, the wrong direction for negative-heavy workloads).
//
// The construction transplants BFL's approximate-TC idea (§3.3) to the
// labeled setting. Observe that for allowed label sets A ⊆ A', every
// A-constrained path is also A'-constrained; contrapositively, if t is
// unreachable from s in the subgraph G₋ℓ that drops all ℓ-labeled edges,
// then t is unreachable under every allowed set A with ℓ ∉ A. The index
// therefore stores |L|+1 Bloom-filter families — one on the full graph
// and one on each drop-one-label subgraph — and answers Qr(s, t, A) with:
//
//   - definite negative: the full-graph filter rejects, or the G₋ℓ filter
//     rejects for some ℓ ∉ A (all sound necessary conditions ⇒ no false
//     negatives);
//   - otherwise: label-constrained BFS guided by the same filters (every
//     frontier vertex v is pruned when some applicable filter proves v
//     cannot reach t).
//
// Like BFL, the index is linear-size, builds in O((|L|+1)·(n+m)) time,
// and inherits §5's key property: negative queries — the common case —
// can terminate on lookups alone.
package lcrbloom

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/labelset"
	"repro/internal/order"
	"repro/internal/scc"
	"repro/internal/scratch"
)

// Options configures the index.
type Options struct {
	// Bits is the Bloom filter width per family (rounded up to 64).
	// Default 256.
	Bits int
	// Seed scrambles the vertex hash.
	Seed int64
}

func (o *Options) defaults() {
	if o.Bits <= 0 {
		o.Bits = 256
	}
	o.Bits = (o.Bits + 63) &^ 63
}

// family is one filter pair (forward/backward) built on one subgraph.
type family struct {
	out, in []uint64 // n*words each
}

// Index is the labeled-Bloom-filter partial LCR index.
type Index struct {
	g     *graph.Digraph
	words int
	// full is the family on the whole graph; drop[ℓ] on G₋ℓ.
	full  family
	drop  []family
	seed  uint64
	stats core.Stats
}

// New builds the index over a labeled digraph.
func New(g *graph.Digraph, opts Options) *Index {
	opts.defaults()
	start := time.Now()
	ix := &Index{
		g:     g,
		words: opts.Bits / 64,
		seed:  uint64(opts.Seed)*0x9e3779b97f4a7c15 + 0x8e9d5aab,
	}
	ix.full = ix.buildFamily(g, labelset.Set(^uint64(0)))
	L := g.Labels()
	ix.drop = make([]family, L)
	for l := 0; l < L; l++ {
		mask := labelset.Set(^uint64(0)) &^ labelset.Of(graph.Label(l))
		ix.drop[l] = ix.buildFamily(g, mask)
	}
	n := g.N()
	ix.stats = core.Stats{
		Entries:   2 * n * (L + 1),
		Bytes:     2 * n * ix.words * 8 * (L + 1),
		BuildTime: time.Since(start),
	}
	return ix
}

// buildFamily computes forward/backward Bloom filters over the subgraph
// keeping only edges whose label is in mask, via that subgraph's
// condensation (handles cycles).
func (ix *Index) buildFamily(g *graph.Digraph, mask labelset.Set) family {
	n := g.N()
	w := ix.words
	// Subgraph restricted to mask.
	b := graph.NewBuilder(n)
	g.Edges(func(e graph.Edge) bool {
		if mask.Has(e.Label) {
			b.AddEdge(e.From, e.To)
		}
		return true
	})
	sub := b.MustFreeze()
	cond := scc.Condense(sub, 0)
	dag := cond.DAG
	nc := dag.N()
	cOut := make([]uint64, nc*w)
	cIn := make([]uint64, nc*w)
	for v := 0; v < n; v++ {
		c := int(cond.Comp[v])
		word, bit := ix.hash(graph.V(v))
		cOut[c*w+word] |= bit
		cIn[c*w+word] |= bit
	}
	topo, _ := order.Topological(dag)
	for i := len(topo) - 1; i >= 0; i-- {
		v := int(topo[i])
		for _, u := range dag.Succ(graph.V(v)) {
			for j := 0; j < w; j++ {
				cOut[v*w+j] |= cOut[int(u)*w+j]
			}
		}
	}
	for _, v := range topo {
		for _, u := range dag.Pred(v) {
			for j := 0; j < w; j++ {
				cIn[int(v)*w+j] |= cIn[int(u)*w+j]
			}
		}
	}
	f := family{out: make([]uint64, n*w), in: make([]uint64, n*w)}
	for v := 0; v < n; v++ {
		c := int(cond.Comp[v])
		copy(f.out[v*w:(v+1)*w], cOut[c*w:(c+1)*w])
		copy(f.in[v*w:(v+1)*w], cIn[c*w:(c+1)*w])
	}
	return f
}

func (ix *Index) hash(v graph.V) (int, uint64) {
	x := (uint64(v) + 1) * ix.seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	pos := x % uint64(ix.words*64)
	return int(pos / 64), 1 << (pos % 64)
}

// rejects reports whether family f proves s cannot reach t (in f's
// subgraph): Lout(t) ⊄ Lout(s) or Lin(s) ⊄ Lin(t).
func (f *family) rejects(s, t graph.V, w int) bool {
	so := f.out[int(s)*w : (int(s)+1)*w]
	to := f.out[int(t)*w : (int(t)+1)*w]
	for j := range so {
		if to[j]&^so[j] != 0 {
			return true
		}
	}
	si := f.in[int(s)*w : (int(s)+1)*w]
	ti := f.in[int(t)*w : (int(t)+1)*w]
	for j := range si {
		if si[j]&^ti[j] != 0 {
			return true
		}
	}
	return false
}

// Name implements core.LCRIndex.
func (ix *Index) Name() string { return "LCR-Bloom" }

// TryReachLC gives the lookup-only answer: (false, true) on a definite
// negative, (_, false) when traversal is needed. There is no definite
// positive — this index is the mirror image of the landmark index.
func (ix *Index) TryReachLC(s, t graph.V, allowed labelset.Set) (bool, bool) {
	if s == t {
		return true, true
	}
	if ix.full.rejects(s, t, ix.words) {
		return false, true
	}
	for l := range ix.drop {
		if !allowed.Has(graph.Label(l)) && ix.drop[l].rejects(s, t, ix.words) {
			return false, true
		}
	}
	return false, false
}

// ReachLC answers exactly: filter cuts plus filter-guided constrained BFS.
func (ix *Index) ReachLC(s, t graph.V, allowed labelset.Set) bool {
	if s == t {
		return true
	}
	if _, dec := ix.TryReachLC(s, t, allowed); dec {
		return false
	}
	// Hoist the families applicable to this query's allowed set; the
	// frontier check below then scans only those.
	fams := []*family{&ix.full}
	for l := range ix.drop {
		if !allowed.Has(graph.Label(l)) {
			fams = append(fams, &ix.drop[l])
		}
	}
	sc := scratch.Get(ix.g.N())
	defer scratch.Put(sc)
	visited := sc.Visited()
	visited.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	for qi := 0; qi < len(sc.Queue); qi++ {
		v := sc.Queue[qi]
		succ := ix.g.Succ(v)
		labs := ix.g.SuccLabels(v)
	next:
		for i, w := range succ {
			if !allowed.Has(labs[i]) {
				continue
			}
			if w == t {
				return true
			}
			if visited.Test(int(w)) {
				continue
			}
			visited.Set(int(w))
			// Prune w when some applicable filter proves it cannot reach
			// t (sound: w→t under A implies no applicable filter rejects).
			for _, f := range fams {
				if f.rejects(w, t, ix.words) {
					continue next
				}
			}
			sc.Queue = append(sc.Queue, w)
		}
	}
	return false
}

// Stats implements core.LCRIndex.
func (ix *Index) Stats() core.Stats { return ix.stats }

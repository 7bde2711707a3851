// Package tc implements the naive closures of the paper's §2.3, used here
// exactly as the paper positions them: as the semantics every index is
// validated against, feasible only at small-to-medium scale.
//
//   - Closure: the transitive closure (TC) of a plain graph as a bit matrix,
//     O(n·m/64) via reverse-topological bitset propagation on the
//     condensation.
//   - GTC: the generalized transitive closure for alternation constraints —
//     for every (s, t), the antichain of minimal path-label sets (SPLSs).
//   - RLCReach: ground truth for concatenation constraints via product BFS.
package tc

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/labelset"
	"repro/internal/par"
	"repro/internal/scc"
	"repro/internal/scratch"
	"repro/internal/traversal"
)

// Closure is the full transitive closure of a digraph. Reach(s, t) answers
// in O(1). Reflexive: every vertex reaches itself.
type Closure struct {
	comp []uint32
	mat  *bitset.Matrix // component-level closure
}

// NewClosure computes the transitive closure of g (general digraph; SCCs
// are condensed first). Serial; see NewClosureN for the parallel variant.
func NewClosure(g *graph.Digraph) *Closure { return NewClosureN(g, 1) }

// NewClosureN is NewClosure with the row computation fanned out over a
// worker pool (0 = GOMAXPROCS, 1 = serial): the component sources are cut
// into blocks of 64 and each block is closed by one bit-parallel sweep of
// the condensation (traversal.MultiSourceSweep) — 64 rows per pass over
// the DAG's edges instead of one OR per edge endpoint per row. Blocks own
// disjoint row ranges of the closure matrix and the topological order is
// shared read-only, so the closure is exact and identical at any worker
// count.
func NewClosureN(g *graph.Digraph, workers int) *Closure {
	return NewClosureChecked(g, workers, nil)
}

// NewClosureChecked is NewClosureN under a cancellation checkpoint: one
// tick per closure row, so a canceled closure build over a large
// condensation aborts after a bounded number of block sweeps. A nil check
// is free.
func NewClosureChecked(g *graph.Digraph, workers int, chk *core.Check) *Closure {
	cond := scc.Condense(g, workers)
	dag := cond.DAG
	nc := dag.N()
	mat := bitset.NewMatrix(nc, nc)
	// Tarjan assigns component ids in reverse topological order (if a
	// reaches b then id(a) > id(b)), so descending ids ARE a topological
	// order of the condensation — no level bucketing needed.
	ord := make([]graph.V, nc)
	for i := range ord {
		ord[i] = graph.V(nc - 1 - i)
	}
	blocks := (nc + traversal.WordSources - 1) / traversal.WordSources
	par.Do(workers, blocks, func(b int) {
		base := b * traversal.WordSources
		hi := base + traversal.WordSources
		if hi > nc {
			hi = nc
		}
		sc := scratch.Get(0)
		defer scratch.Put(sc)
		words := sc.Words(nc)
		for s := base; s < hi; s++ {
			chk.Tick()
			words[s] |= 1 << uint(s-base) // source reaches itself
		}
		traversal.MultiSourceSweep(dag, ord, words)
		for v, wv := range words {
			for wv != 0 {
				j := bits.TrailingZeros64(wv)
				mat.Set(base+j, v)
				wv &= wv - 1
			}
		}
	})
	return &Closure{comp: cond.Comp, mat: mat}
}

// Reach reports whether t is reachable from s (true when s == t).
func (c *Closure) Reach(s, t graph.V) bool {
	return c.mat.Test(int(c.comp[s]), int(c.comp[t]))
}

// Pairs returns the number of reachable component pairs; Bytes the storage.
func (c *Closure) Pairs() int { return c.mat.CountAll() }

// Bytes returns the storage footprint of the closure matrix.
func (c *Closure) Bytes() int { return c.mat.Bytes() }

// GTC is the generalized transitive closure for alternation (LCR) queries:
// gtc[s][t] is the antichain of minimal label sets over all s-t paths.
// Quadratic storage — small graphs only, used as the LCR oracle.
type GTC struct {
	n    int
	cols []*labelset.Collection // indexed s*n + t; nil = unreachable
}

// NewGTC computes the exact GTC of a labeled digraph by per-source
// label-set BFS with antichain frontiers.
func NewGTC(g *graph.Digraph) *GTC { return NewGTCChecked(g, nil) }

// NewGTCChecked is NewGTC under a cancellation checkpoint: ticks per
// source and per worklist expansion, so a build blowing up on label-set
// combinatorics (the survey's GTC infeasibility warning) stays cancelable
// mid-source.
func NewGTCChecked(g *graph.Digraph, chk *core.Check) *GTC {
	n := g.N()
	t := &GTC{n: n, cols: make([]*labelset.Collection, n*n)}
	for s := 0; s < n; s++ {
		chk.Tick()
		t.singleSource(g, graph.V(s), chk)
	}
	return t
}

// singleSource computes minimal label sets from s to every vertex by a
// label-set Dijkstra/BFS hybrid: a worklist of (vertex, set) pairs, where a
// pair is expanded only if its set is not dominated at that vertex.
func (t *GTC) singleSource(g *graph.Digraph, s graph.V, chk *core.Check) {
	n := g.N()
	at := make([]*labelset.Collection, n)
	type item struct {
		v   graph.V
		set labelset.Set
	}
	var queue []item
	at[s] = &labelset.Collection{}
	at[s].Add(0) // empty set reaches s
	queue = append(queue, item{s, 0})
	for len(queue) > 0 {
		chk.Tick()
		it := queue[0]
		queue = queue[1:]
		// Skip entries evicted by a smaller set discovered after they were
		// enqueued; the smaller set's own expansion covers them.
		if !at[it.v].Has(it.set) {
			continue
		}
		succ := g.Succ(it.v)
		labs := g.SuccLabels(it.v)
		for i, w := range succ {
			ns := it.set.With(labs[i])
			if at[w] == nil {
				at[w] = &labelset.Collection{}
			}
			if at[w].Add(ns) {
				queue = append(queue, item{w, ns})
			}
		}
	}
	for v := 0; v < n; v++ {
		if at[v] != nil && at[v].Len() > 0 {
			t.cols[int(s)*n+v] = at[v]
		}
	}
}

// SPLS returns the antichain of minimal label sets from s to t, or nil if t
// is unreachable from s. For s == t the collection contains the empty set.
func (t *GTC) SPLS(s, tgt graph.V) *labelset.Collection {
	return t.cols[int(s)*t.n+int(tgt)]
}

// ReachLC answers the alternation query: can s reach t using only labels in
// allowed? (true for s == t).
func (t *GTC) ReachLC(s, tgt graph.V, allowed labelset.Set) bool {
	c := t.cols[int(s)*t.n+int(tgt)]
	return c != nil && c.AnySubsetOf(allowed)
}

// Entries returns the total number of stored label sets (the GTC size the
// paper calls infeasible to materialize at scale).
func (t *GTC) Entries() int {
	e := 0
	for _, c := range t.cols {
		if c != nil {
			e += c.Len()
		}
	}
	return e
}

// RLCReach is the concatenation-constraint ground truth: does some s-t path
// spell (seq)^k for k >= 1 (or k >= 0 when star, making s == t true)? It
// runs a BFS over the product of g with the |seq|-state cyclic automaton.
func RLCReach(g *graph.Digraph, s, tgt graph.V, seq []graph.Label, star bool) bool {
	if s == tgt && star {
		return true
	}
	k := len(seq)
	if k == 0 {
		return s == tgt && star
	}
	n := g.N()
	visited := bitset.New(n * k)
	type state struct {
		v graph.V
		q int // next expected position in seq
	}
	visited.Set(int(s) * k)
	queue := []state{{s, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		succ := g.Succ(cur.v)
		labs := g.SuccLabels(cur.v)
		for i, w := range succ {
			if labs[i] != seq[cur.q] {
				continue
			}
			nq := (cur.q + 1) % k
			if w == tgt && nq == 0 {
				return true
			}
			id := int(w)*k + nq
			if !visited.Test(id) {
				visited.Set(id)
				queue = append(queue, state{w, nq})
			}
		}
	}
	return false
}

// Oracle bundles the exact answers for all three query classes on one
// graph; the cross-validation tests of every index build one of these.
type Oracle struct {
	G       *graph.Digraph
	Plain   *Closure
	Labeled *GTC // nil for unlabeled graphs
}

// NewOracle builds the oracle for g (GTC only when labeled).
func NewOracle(g *graph.Digraph) *Oracle {
	o := &Oracle{G: g, Plain: NewClosure(g)}
	if g.Labeled() {
		o.Labeled = NewGTC(g)
	}
	return o
}

// Reach is the plain ground truth.
func (o *Oracle) Reach(s, t graph.V) bool { return o.Plain.Reach(s, t) }

// ReachLC is the alternation ground truth.
func (o *Oracle) ReachLC(s, t graph.V, allowed labelset.Set) bool {
	if s == t {
		return true
	}
	return o.Labeled.ReachLC(s, t, allowed)
}

// ReachRLC is the concatenation ground truth.
func (o *Oracle) ReachRLC(s, t graph.V, seq []graph.Label, star bool) bool {
	return RLCReach(o.G, s, t, seq, star)
}

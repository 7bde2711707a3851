// Package traversal implements the online query-processing baselines of the
// paper's §2.3: breadth-first search, depth-first search, bidirectional BFS
// for plain reachability, label-constrained BFS for alternation queries,
// and product-automaton BFS for general regular path constraints. Every
// index in this repository is benchmarked against these and the partial
// indexes fall back to (pruned versions of) them.
//
// The searches draw their visited bitsets and frontier queues from the
// shared scratch pool (internal/scratch), so a steady-state query performs
// no heap allocation — see BenchmarkPooledBFS.
package traversal

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/scratch"
)

// BFS answers Qr(s, t) by forward breadth-first search.
func BFS(g *graph.Digraph, s, t graph.V) bool {
	if s == t {
		return true
	}
	sc := scratch.Get(g.N())
	defer scratch.Put(sc)
	visited := sc.Visited()
	visited.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	for qi := 0; qi < len(sc.Queue); qi++ {
		v := sc.Queue[qi]
		for _, w := range g.Succ(v) {
			if w == t {
				return true
			}
			if !visited.Test(int(w)) {
				visited.Set(int(w))
				sc.Queue = append(sc.Queue, w)
			}
		}
	}
	return false
}

// DFS answers Qr(s, t) by iterative forward depth-first search.
func DFS(g *graph.Digraph, s, t graph.V) bool {
	if s == t {
		return true
	}
	sc := scratch.Get(g.N())
	defer scratch.Put(sc)
	visited := sc.Visited()
	visited.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	for len(sc.Queue) > 0 {
		v := sc.Queue[len(sc.Queue)-1]
		sc.Queue = sc.Queue[:len(sc.Queue)-1]
		for _, w := range g.Succ(v) {
			if w == t {
				return true
			}
			if !visited.Test(int(w)) {
				visited.Set(int(w))
				sc.Queue = append(sc.Queue, w)
			}
		}
	}
	return false
}

// BiBFS answers Qr(s, t) by bidirectional breadth-first search, expanding
// the smaller frontier first (the paper's BiBFS baseline). The two
// frontiers and the next-level build buffer rotate through the scratch
// arena's three queue slots.
func BiBFS(g *graph.Digraph, s, t graph.V) bool {
	if s == t {
		return true
	}
	n := g.N()
	sc := scratch.Get(n)
	defer scratch.Put(sc)
	fvis, bvis := sc.Visited(), sc.Visited2(n)
	fvis.Set(int(s))
	bvis.Set(int(t))
	sc.Queue = append(sc.Queue, s)   // forward frontier
	sc.Queue2 = append(sc.Queue2, t) // backward frontier
	for len(sc.Queue) > 0 && len(sc.Queue2) > 0 {
		sc.Aux = sc.Aux[:0]
		if len(sc.Queue) <= len(sc.Queue2) {
			for _, v := range sc.Queue {
				for _, w := range g.Succ(v) {
					if bvis.Test(int(w)) {
						return true
					}
					if !fvis.Test(int(w)) {
						fvis.Set(int(w))
						sc.Aux = append(sc.Aux, w)
					}
				}
			}
			sc.Queue, sc.Aux = sc.Aux, sc.Queue
		} else {
			for _, v := range sc.Queue2 {
				for _, w := range g.Pred(v) {
					if fvis.Test(int(w)) {
						return true
					}
					if !bvis.Test(int(w)) {
						bvis.Set(int(w))
						sc.Aux = append(sc.Aux, w)
					}
				}
			}
			sc.Queue2, sc.Aux = sc.Aux, sc.Queue2
		}
	}
	return false
}

// ReachableFrom returns the set of vertices reachable from s (including s).
// The returned set is freshly allocated because callers (the O'Reach index)
// retain it; callers that only inspect the set transiently should use
// ReachableFromInto with a set they reuse instead.
func ReachableFrom(g *graph.Digraph, s graph.V) *bitset.Set {
	return ReachableFromInto(g, s, bitset.New(g.N()))
}

// ReachableFromInto computes the forward reachable set of s into visited,
// which must already be cleared with capacity for bits [0, g.N()) — reuse
// one set across calls for an allocation-free traversal. It returns
// visited for convenience; the set belongs to the caller.
func ReachableFromInto(g *graph.Digraph, s graph.V, visited *bitset.Set) *bitset.Set {
	visited.Set(int(s))
	sc := scratch.Get(0)
	defer scratch.Put(sc)
	sc.Queue = append(sc.Queue, s)
	for len(sc.Queue) > 0 {
		v := sc.Queue[len(sc.Queue)-1]
		sc.Queue = sc.Queue[:len(sc.Queue)-1]
		for _, w := range g.Succ(v) {
			if !visited.Test(int(w)) {
				visited.Set(int(w))
				sc.Queue = append(sc.Queue, w)
			}
		}
	}
	return visited
}

// Reaching returns the set of vertices that can reach t (including t). The
// returned set is freshly allocated (retained by the O'Reach index); use
// ReachingInto with a reused set for transient lookups.
func Reaching(g *graph.Digraph, t graph.V) *bitset.Set {
	return ReachingInto(g, t, bitset.New(g.N()))
}

// ReachingInto computes the backward reachable set of t into visited, which
// must already be cleared with capacity for bits [0, g.N()). It returns
// visited for convenience; the set belongs to the caller.
func ReachingInto(g *graph.Digraph, t graph.V, visited *bitset.Set) *bitset.Set {
	visited.Set(int(t))
	sc := scratch.Get(0)
	defer scratch.Put(sc)
	sc.Queue = append(sc.Queue, t)
	for len(sc.Queue) > 0 {
		v := sc.Queue[len(sc.Queue)-1]
		sc.Queue = sc.Queue[:len(sc.Queue)-1]
		for _, w := range g.Pred(v) {
			if !visited.Test(int(w)) {
				visited.Set(int(w))
				sc.Queue = append(sc.Queue, w)
			}
		}
	}
	return visited
}

// LabelConstrainedBFS answers the alternation (LCR) query Qr(s, t, A*) where
// the allowed label set is given as a bitmask: the traversal may only use
// edges whose label is in the mask. This is the online baseline for §4.1.
func LabelConstrainedBFS(g *graph.Digraph, s, t graph.V, allowed uint64) bool {
	if s == t {
		return true
	}
	sc := scratch.Get(g.N())
	defer scratch.Put(sc)
	visited := sc.Visited()
	visited.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	for qi := 0; qi < len(sc.Queue); qi++ {
		v := sc.Queue[qi]
		succ := g.Succ(v)
		labs := g.SuccLabels(v)
		for i, w := range succ {
			if allowed&(1<<uint(labs[i])) == 0 {
				continue
			}
			if w == t {
				return true
			}
			if !visited.Test(int(w)) {
				visited.Set(int(w))
				sc.Queue = append(sc.Queue, w)
			}
		}
	}
	return false
}

// DFAIface is the minimal deterministic-automaton interface the product
// search needs; satisfied by regexpath.DFA without importing it here.
type DFAIface interface {
	Start() int
	Step(state int, l graph.Label) int // -1 = dead
	Accepting(state int) bool
	NumStates() int
}

// ProductBFS answers the general path-constrained query Qr(s, t, α) by BFS
// over the product of g and the DFA of α (the "guided graph traversal" of
// §2.3). A query holds iff some s-t path spells a word of L(α).
func ProductBFS(g *graph.Digraph, s, t graph.V, dfa DFAIface) bool {
	r, _ := ProductBFSCtx(nil, g, s, t, dfa) // a nil context never cancels
	return r
}

// productPollStride is how many product-state dequeues pass between
// context polls in ProductBFSCtx: coarse enough that the poll is free,
// fine enough that a canceled query over a huge product space (|V| × DFA
// states) stops within microseconds.
const productPollStride = 256

// ProductBFSCtx is ProductBFS under a context: the search polls
// ctx.Done() on a fixed stride of product-state expansions and aborts
// with ctx.Err() when the context is canceled or past its deadline. The
// product space is |V| × |DFA| — the one query route whose work is not
// bounded by an index — which is why the DB's query deadline threads to
// exactly this loop. The product-space visited set is pooled, and emptied
// by what the search touched, not by |V| × |DFA| bits; the (vertex,
// state) queue is local because its element type does not fit the shared
// arena.
func ProductBFSCtx(ctx context.Context, g *graph.Digraph, s, t graph.V, dfa DFAIface) (bool, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	start := dfa.Start()
	if s == t && dfa.Accepting(start) {
		return true, nil
	}
	ns := dfa.NumStates()
	sc := scratch.Get(g.N() * ns)
	defer scratch.Put(sc)
	visited := sc.Visited()
	id := func(v graph.V, q int) int { return int(v)*ns + q }
	visited.Set(id(s, start))
	type state struct {
		v graph.V
		q int
	}
	queue := []state{{s, start}}
	for qi := 0; qi < len(queue); qi++ {
		if done != nil && qi%productPollStride == 0 {
			select {
			case <-done:
				return false, ctx.Err()
			default:
			}
		}
		cur := queue[qi]
		succ := g.Succ(cur.v)
		labs := g.SuccLabels(cur.v)
		for i, w := range succ {
			nq := dfa.Step(cur.q, labs[i])
			if nq < 0 {
				continue
			}
			if w == t && dfa.Accepting(nq) {
				return true, nil
			}
			if !visited.Test(id(w, nq)) {
				visited.Set(id(w, nq))
				queue = append(queue, state{w, nq})
			}
		}
	}
	return false, nil
}

// CountVisitedBFS runs a full BFS from s and returns how many vertices were
// visited; used by the benchmark harness to report traversal work. The
// visited set is pooled (nothing is retained), so a steady-state call
// allocates nothing.
func CountVisitedBFS(g *graph.Digraph, s graph.V) int {
	sc := scratch.Get(g.N())
	defer scratch.Put(sc)
	visited := sc.Visited()
	visited.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	for qi := 0; qi < len(sc.Queue); qi++ {
		for _, w := range g.Succ(sc.Queue[qi]) {
			if !visited.Test(int(w)) {
				visited.Set(int(w))
				sc.Queue = append(sc.Queue, w)
			}
		}
	}
	return len(sc.Queue)
}

package core

import (
	"context"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scc"
)

// ForGeneralPrepared lifts a DAG-only index builder to general graphs via
// SCC condensation (§3.1): Qr(s, t) is answered by first comparing the
// component ids of s and t (equal: one SCC; the source's id lower: no
// path), then querying the DAG index on the component graph. This is the
// standard reduction the paper notes "most plain reachability indexes in
// literature assume". build receives the whole condensation, so an index
// may use Tarjan's order (BFL takes its intervals from it) as well as the
// DAG, and the condensation may come from a shared preprocessing memo. The SCC condensation and the
// inner index construction are recorded as the named spans
// "scc/condense" and "index/build" (a nil recorder records nothing);
// builders that expose their own internal phases nest them
// under "index/build". workers is the caller's resolved
// reach.Options.Workers: the condensation builds its two CSR sides on up
// to two of them (Tarjan itself stays serial) and a computed
// "scc/condense" span records it as its `workers` attribute. buildWorkers
// is the "index/build" span's `workers` attribute: the resolved count
// for builders with a parallel construction phase, 0 for serial ones.
//
// When prep is non-nil (and bound to g), the SCC condensation is computed
// at most once across every index built over the same graph, and the
// "scc/condense" span records whether this build hit the memo as its
// `cached` attribute. A nil prep recomputes per build, which is the
// pre-memo behavior the one-off Build path keeps.
func ForGeneralPrepared(g *graph.Digraph, spans *obs.Spans, workers, buildWorkers int, prep *Prepared, build func(c *scc.Condensation) Index) Index {
	// Phase-level fault-injection points: every index lifted through the
	// condensation adapter (most of the catalogue) is panickable here by
	// the stress harness even if its builder has no checkpoint of its own.
	faultinject.Hit("core/scc-condense")
	cond := condense(g, spans, workers, prep)
	faultinject.Hit("core/index-build")
	end := spans.StartN("index/build", buildWorkers)
	inner := build(cond)
	end()
	return newCondensed(cond, inner)
}

// ForGeneralLoaded is the warm-start twin of ForGeneralPrepared: instead
// of building the DAG index it loads one from a snapshot via load, and
// records the (much cheaper) deserialization as an "index/load" span —
// so a warm-started build timeline is distinguishable from a fresh one
// by span name alone. The condensation still runs (or comes from the
// prep memo): it is derived from the immutable graph and deterministic,
// but not free. On a 10⁶-vertex, 4·10⁶-edge random DAG (2 vCPUs) it
// takes ≈0.6 s, ≈0.35 s of it the serial Tarjan, against ≈0.4 s for
// BFL's whole build.
func ForGeneralLoaded(g *graph.Digraph, spans *obs.Spans, workers int, prep *Prepared, load func(dag *graph.Digraph) (Index, error)) (Index, error) {
	cond := condense(g, spans, workers, prep)
	end := spans.Start("index/load")
	inner, err := load(cond.DAG)
	end()
	if err != nil {
		return nil, err
	}
	return newCondensed(cond, inner), nil
}

// condense is the "scc/condense" phase: from prep's memo when prep is
// bound to g, computed on workers otherwise.
func condense(g *graph.Digraph, spans *obs.Spans, workers int, prep *Prepared) *scc.Condensation {
	if prep != nil && prep.Graph() == g {
		return prep.CondenseSpans(spans, workers)
	}
	end := spans.StartN("scc/condense", par.Resolve(workers))
	defer end()
	return scc.Condense(g, workers)
}

// newCondensed wraps a DAG index in the condensation adapter, binding the
// partial/counting fast paths once.
func newCondensed(cond *scc.Condensation, inner Index) *condensed {
	c := &condensed{cond: cond, inner: inner}
	if rc, ok := inner.(ReachCounter); ok {
		c.rc = rc
	}
	if br, ok := inner.(BlockReacher); ok {
		c.br = br
	}
	if p, ok := inner.(Partial); ok {
		c.p = p
		c.try = p.TryReach // bound once: the hot paths must not allocate per call
	}
	return c
}

// condensed answers through the condensation. Tarjan numbers components
// in reverse topological order, so s reaches t only if
// Comp[s] >= Comp[t]: every query with Comp[s] <= Comp[t] is settled by
// the two Comp words alone, before the inner index is called.
type condensed struct {
	cond  *scc.Condensation
	inner Index
	rc    ReachCounter                    // inner as ReachCounter, nil otherwise
	br    BlockReacher                    // inner as BlockReacher, nil otherwise
	p     Partial                         // inner as Partial, nil when complete
	try   func(u, t graph.V) (bool, bool) // p.TryReach, pre-bound
}

func (c *condensed) Name() string { return c.inner.Name() }

func (c *condensed) Reach(s, t graph.V) bool {
	cs, ct := c.cond.Comp[s], c.cond.Comp[t]
	if cs <= ct {
		return cs == ct
	}
	return c.inner.Reach(cs, ct)
}

func (c *condensed) Stats() Stats {
	st := c.inner.Stats()
	st.Bytes += len(c.cond.Comp) * 4
	return st
}

// TryReach forwards partial-index lookups through the condensation.
func (c *condensed) TryReach(s, t graph.V) (bool, bool) {
	cs, ct := c.cond.Comp[s], c.cond.Comp[t]
	if cs <= ct {
		return cs == ct, true
	}
	if c.p != nil {
		return c.p.TryReach(cs, ct)
	}
	return c.inner.Reach(cs, ct), true
}

// ReachCounted implements ReachCounter: it answers exactly like Reach but
// additionally reports whether the query was decided without traversal
// (by the component cut or the inner index's labels) and, if not, how
// many DAG vertices the guided fallback expanded. When the inner index counts for itself (the guided-DFS family
// all do) the query is byte-for-byte the traversal Reach performs, so
// instrumented and raw queries do identical work apart from the counter.
func (c *condensed) ReachCounted(s, t graph.V) (reachable bool, visited int, decided bool) {
	cs, ct := c.cond.Comp[s], c.cond.Comp[t]
	if cs <= ct {
		return cs == ct, 0, true
	}
	if c.rc != nil {
		return c.rc.ReachCounted(cs, ct)
	}
	if c.p != nil {
		r, n := CountingGuidedDFS(c.cond.DAG, cs, ct, c.try)
		return r, n, n == 0
	}
	return c.inner.Reach(cs, ct), 0, true
}

// BatchReach implements BatchIndex: over an inner index with a block
// form the pairs are answered block by block (reachBlock), inline or on a
// pool as BatchReach (the function) describes; any other inner index is
// asked through Reach, pair by pair (BatchEach).
func (c *condensed) BatchReach(ctx context.Context, pairs []Pair, out []bool, workers int) error {
	if c.br == nil {
		return BatchEach(ctx, c, pairs, out, workers)
	}
	return eachRun(ctx, len(pairs), BatchBlock, workers, func(lo, hi int) {
		c.reachBlock(pairs[lo:hi], out[lo:hi])
	})
}

// reachBlock answers a block of at most BatchBlock pairs into out and
// returns the tallies ReachCounted would have summed over them. Every
// pair's components are looked up first and the pairs with
// Comp[s] <= Comp[t] settled in place; the rest go, as DAG pairs, to one
// ReachBlock call on the inner index, which must have one (c.br != nil).
func (c *condensed) reachBlock(ps []Pair, out []bool) (fallback, visited int) {
	var at [BatchBlock]uint16
	b := blockBufs.Get().(*blockBuf)
	defer blockBufs.Put(b)
	comp, k := c.cond.Comp, 0
	for i, p := range ps[:len(out)] {
		cs, ct := comp[p.S], comp[p.T]
		if cs <= ct {
			out[i] = cs == ct
			continue
		}
		b.dag[k], at[k] = Pair{S: cs, T: ct}, uint16(i)
		k++
	}
	if k == 0 {
		return 0, 0
	}
	fallback, visited = c.br.ReachBlock(b.dag[:k], b.res[:k])
	for j, i := range at[:k] {
		out[i] = b.res[j]
	}
	return fallback, visited
}

// blockBuf is the part of a block reachBlock hands to the inner index:
// an interface call's arguments escape, so it comes from a pool rather
// than the stack.
type blockBuf struct {
	dag [BatchBlock]Pair
	res [BatchBlock]bool
}

var blockBufs = sync.Pool{New: func() any { return new(blockBuf) }}

// Inner exposes the wrapped DAG index; the experiment harness uses it to
// report the underlying technique's statistics.
func (c *condensed) Inner() Index { return c.inner }

package core

import (
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scc"
)

// DAGBuilder constructs an index assuming its input is a DAG.
type DAGBuilder func(dag *graph.Digraph) Index

// ForGeneral lifts a DAG-only index builder to general graphs via SCC
// condensation (§3.1): Qr(s, t) is answered by first checking whether s and
// t share an SCC, then querying the DAG index on the component graph. This
// is the standard reduction the paper notes "most plain reachability
// indexes in literature assume".
func ForGeneral(g *graph.Digraph, build DAGBuilder) Index {
	return ForGeneralSpans(g, nil, build)
}

// ForGeneralSpans is ForGeneral with build-phase observability: the SCC
// condensation and the inner index construction are recorded as named
// spans (a nil recorder records nothing). Builders that expose their own
// internal phases nest them under "index/build".
func ForGeneralSpans(g *graph.Digraph, spans *obs.Spans, build DAGBuilder) Index {
	return ForGeneralSpansN(g, spans, 0, build)
}

// ForGeneralSpansN is ForGeneralSpans for builders with a parallel
// construction phase: the "index/build" span records the resolved worker
// count as its `workers` attribute. The SCC condensation itself (Tarjan)
// is inherently sequential and always runs serial.
func ForGeneralSpansN(g *graph.Digraph, spans *obs.Spans, workers int, build DAGBuilder) Index {
	return ForGeneralPrepared(g, spans, workers, nil, build)
}

// ForGeneralPrepared is ForGeneralSpansN with the condensation drawn from
// a shared preprocessing memo: when prep is non-nil (and bound to g), the
// SCC condensation is computed at most once across every index built over
// the same graph, and the "scc/condense" span records whether this build
// hit the memo as its `cached` attribute. A nil prep recomputes per build,
// which is the pre-memo behavior the one-off Build path keeps.
func ForGeneralPrepared(g *graph.Digraph, spans *obs.Spans, workers int, prep *Prepared, build DAGBuilder) Index {
	// Phase-level fault-injection points: every index lifted through the
	// condensation adapter (most of the catalogue) is panickable here by
	// the stress harness even if its builder has no checkpoint of its own.
	faultinject.Hit("core/scc-condense")
	var cond *scc.Condensation
	if prep != nil && prep.Graph() == g {
		cond = prep.CondenseSpans(spans)
	} else {
		endCond := spans.Start("scc/condense")
		cond = scc.Condense(g)
		endCond()
	}
	faultinject.Hit("core/index-build")
	end := spans.StartN("index/build", workers)
	inner := build(cond.DAG)
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
// takes ≈0.6 s, half of it Tarjan, against ≈0.5 s for BFL's whole build.
func ForGeneralLoaded(g *graph.Digraph, spans *obs.Spans, prep *Prepared, load func(dag *graph.Digraph) (Index, error)) (Index, error) {
	var cond *scc.Condensation
	if prep != nil && prep.Graph() == g {
		cond = prep.CondenseSpans(spans)
	} else {
		endCond := spans.Start("scc/condense")
		cond = scc.Condense(g)
		endCond()
	}
	end := spans.Start("index/load")
	inner, err := load(cond.DAG)
	end()
	if err != nil {
		return nil, err
	}
	return newCondensed(cond, inner), nil
}

// newCondensed wraps a DAG index in the condensation adapter, binding the
// partial/counting fast paths once.
func newCondensed(cond *scc.Condensation, inner Index) *condensed {
	c := &condensed{cond: cond, inner: inner}
	if rc, ok := inner.(ReachCounter); ok {
		c.rc = rc
	}
	if p, ok := inner.(Partial); ok {
		c.p = p
		c.try = p.TryReach // bound once: the hot paths must not allocate per call
	}
	return c
}

type condensed struct {
	cond  *scc.Condensation
	inner Index
	rc    ReachCounter                    // inner as ReachCounter, nil otherwise
	p     Partial                         // inner as Partial, nil when complete
	try   func(u, t graph.V) (bool, bool) // p.TryReach, pre-bound
}

func (c *condensed) Name() string { return c.inner.Name() }

func (c *condensed) Reach(s, t graph.V) bool {
	cs, ct := c.cond.Comp[s], c.cond.Comp[t]
	if cs == ct {
		return true
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
	if cs == ct {
		return true, true
	}
	if c.p != nil {
		return c.p.TryReach(cs, ct)
	}
	return c.inner.Reach(cs, ct), true
}

// ReachCounted implements ReachCounter: it answers exactly like Reach but
// additionally reports whether the inner index decided the query from its
// labels alone and, if not, how many DAG vertices the guided fallback
// expanded. When the inner index counts for itself (the guided-DFS family
// all do) the query is byte-for-byte the traversal Reach performs, so
// instrumented and raw queries do identical work apart from the counter.
func (c *condensed) ReachCounted(s, t graph.V) (reachable bool, visited int, decided bool) {
	cs, ct := c.cond.Comp[s], c.cond.Comp[t]
	if cs == ct {
		return true, 0, true
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

// Inner exposes the wrapped DAG index; the experiment harness uses it to
// report the underlying technique's statistics.
func (c *condensed) Inner() Index { return c.inner }

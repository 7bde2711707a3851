package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scc"
)

// Prepared memoizes the shared preprocessing of one graph — today the SCC
// condensation of §3.1, the step every DAG-only index repeats verbatim —
// so a caller constructing many indexes over the same *graph.Digraph
// (reach.NewDB, the experiment harness, A/B index comparisons) condenses
// exactly once instead of once per kind. The memo is explicit rather than
// a global keyed by graph pointer: it pins no graph beyond the caller's
// own reference and needs no invalidation protocol (a Digraph is
// immutable after Freeze, so the condensation can never go stale).
//
// A Prepared is safe for concurrent use; the first Condensation caller
// computes, later (and concurrently blocked) callers share the result.
type Prepared struct {
	g    *graph.Digraph
	once sync.Once
	cond *scc.Condensation
	hits atomic.Int64
}

// NewPrepared returns an empty preprocessing memo for g. Nothing is
// computed until the first index build (or Condensation call) needs it,
// so preparing a graph whose indexes all accept general input costs two
// words.
func NewPrepared(g *graph.Digraph) *Prepared {
	return &Prepared{g: g}
}

// Graph returns the graph this memo is bound to; builders use it to
// reject a Prepared that was created for a different graph.
func (p *Prepared) Graph() *graph.Digraph { return p.g }

// Condensation returns the memoized SCC condensation, computing it on
// first use. cached reports whether this call was served from the memo —
// the value recorded as the scc/condense span's `cached` attribute.
func (p *Prepared) Condensation() (cond *scc.Condensation, cached bool) {
	computed := false
	p.once.Do(func() {
		p.cond = scc.Condense(p.g, 0)
		computed = true
	})
	if computed {
		return p.cond, false
	}
	p.hits.Add(1)
	return p.cond, true
}

// CondenseSpans is Condensation with build-phase observability and the
// caller's worker count (see scc.Condense): the first call records an
// "scc/condense" span timing the real computation, with the resolved
// worker count as its `workers` attribute (cached=false); every later
// call records a zero-length span with cached=true, so the per-build
// timeline stays complete while the shared cost appears exactly once.
func (p *Prepared) CondenseSpans(spans *obs.Spans, workers int) *scc.Condensation {
	computed := false
	p.once.Do(func() {
		computed = true
		end := spans.StartN("scc/condense", par.Resolve(workers))
		p.cond = scc.Condense(p.g, workers)
		end()
	})
	if !computed {
		p.hits.Add(1)
		spans.StartCached("scc/condense", true)()
	}
	return p.cond
}

// Hits reports how many Condensation calls were served from the memo
// (i.e. all calls after the first). The condensation-once tests assert
// on it.
func (p *Prepared) Hits() int64 { return p.hits.Load() }

package core

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// ReachCounter is implemented by indexes that can answer a query while
// reporting probe-level detail: whether the index decided it without
// traversal, and how many vertices any guided fallback expanded. The
// condensed adapter implements it over its DAG; the instrumented wrapper
// prefers it because it does exactly the work of Reach plus one integer
// increment per expanded vertex.
type ReachCounter interface {
	ReachCounted(s, t graph.V) (reachable bool, visited int, decided bool)
}

// latencySampleMask selects which queries get timed: 1 in every
// (latencySampleMask+1) calls, keyed off the running query count (so the
// very first query is always timed). All counters (queries, outcome,
// decided/fallback, visited) remain exact; only the latency histogram is
// sampled. Two clock reads cost more than the entire rest of the hot path,
// so sampling is what keeps enabled-mode overhead within the ~10% budget
// on sub-microsecond indexes (see OBSERVABILITY.md).
const latencySampleMask = 31

// Instrumented wraps an Index, recording per-query latency, outcome, and
// — for Partial implementations — probe-level detail: whether TryReach
// decided the query alone or index-guided traversal had to run, and how
// many vertices that fallback expanded. It is the query-side half of the
// observability layer (the build-side half is the Spans plumbing in
// ForGeneralPrepared and the builders).
//
// With nil metrics every method forwards straight to the inner index, so
// a disabled wrapper costs one pointer comparison per call. All interface
// assertions and the TryReach method value are resolved once at
// construction so the hot path allocates nothing.
type Instrumented struct {
	inner Index
	g     Adjacency // traversal view for fallback accounting; may be nil
	m     *obs.IndexMetrics

	cond *condensed                      // inner as *condensed: direct (devirtualized) call
	rc   ReachCounter                    // inner as ReachCounter, nil otherwise
	p    Partial                         // inner as Partial, nil otherwise
	try  func(u, t graph.V) (bool, bool) // p.TryReach, pre-bound
}

// Instrument wraps ix. g is the adjacency the guided fallback traverses
// when the index is partial, does not count its own probes, and TryReach
// leaves a query undecided — pass the graph ix was built over (for
// SCC-lifted indexes the adapter counts internally over its DAG, so g is
// unused). With g nil the wrapper still records decided/fallback counts
// but delegates undecided queries to the inner index and reports no
// visited-vertex totals.
func Instrument(ix Index, g Adjacency, m *obs.IndexMetrics) *Instrumented {
	w := &Instrumented{inner: ix, g: g, m: m}
	if m != nil {
		m.SetLatencySampleStride(latencySampleMask + 1)
	}
	if c, ok := ix.(*condensed); ok {
		w.cond = c
	} else if rc, ok := ix.(ReachCounter); ok {
		w.rc = rc
	}
	if p, ok := ix.(Partial); ok {
		w.p = p
		w.try = p.TryReach
	}
	return w
}

// Name implements Index.
func (w *Instrumented) Name() string { return w.inner.Name() }

// Stats implements Index.
func (w *Instrumented) Stats() Stats { return w.inner.Stats() }

// Inner returns the wrapped index.
func (w *Instrumented) Inner() Index { return w.inner }

// Metrics returns the metrics cell this wrapper records into.
func (w *Instrumented) Metrics() *obs.IndexMetrics { return w.m }

// Reach implements Index, recording one query.
func (w *Instrumented) Reach(s, t graph.V) bool {
	m := w.m
	if m == nil {
		return w.inner.Reach(s, t)
	}
	timed := (m.Positive.Load()+m.Negative.Load())&latencySampleMask == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	var res bool
	switch {
	case w.cond != nil:
		var visited int
		var decided bool
		res, visited, decided = w.cond.ReachCounted(s, t)
		m.ObserveProbe(decided, visited)
	case w.rc != nil:
		var visited int
		var decided bool
		res, visited, decided = w.rc.ReachCounted(s, t)
		m.ObserveProbe(decided, visited)
	case w.p != nil:
		if w.g != nil {
			// CountingGuidedDFS probes (s, t) first, so a decided query
			// expands nothing and an undecided one expands >= 1 vertices.
			var visited int
			res, visited = CountingGuidedDFS(w.g, s, t, w.try)
			m.ObserveProbe(visited == 0, visited)
		} else if r, decided := w.p.TryReach(s, t); decided {
			res = r
			m.ObserveProbe(true, 0)
		} else {
			res = w.inner.Reach(s, t)
			m.ObserveProbe(false, 0)
		}
	default:
		res = w.inner.Reach(s, t)
	}
	m.ObserveOutcome(res)
	if timed {
		m.Latency.Record(time.Since(start))
	}
	return res
}

// TryReach implements Partial: partial inner indexes forward; complete
// inner indexes always decide (mirroring the condensed adapter).
func (w *Instrumented) TryReach(s, t graph.V) (bool, bool) {
	if w.try != nil {
		return w.try(s, t)
	}
	if p, ok := w.inner.(Partial); ok { // e.g. a ReachCounter that is also Partial
		return p.TryReach(s, t)
	}
	return w.inner.Reach(s, t), true
}

// BatchReach implements BatchIndex: the batch and its size are counted
// once, then the pairs are answered and counted so that a batch advances
// the per-query counters exactly as the same pairs asked one at a time.
//
// Over a condensation adapter whose inner index has a block form the
// batch runs block by block (condensed.reachBlock) and each block adds
// its positives, negatives, fallbacks and visited vertices once. Latency
// keeps Reach's rate of one sample per latencySampleMask+1 queries: each
// block is timed whole and records its mean per-pair time once for every
// batch position in it that is a multiple of the stride, so
// Latency.Count times the stride still estimates the query count. Any
// other adapter is asked through Reach, pair by pair; any other inner
// index is handed the whole batch when it has a batch form of its own
// (outcomes are counted from the answers) and asked pair by pair
// otherwise. The counters are atomic, so concurrent workers stay
// race-free.
func (w *Instrumented) BatchReach(ctx context.Context, pairs []Pair, out []bool, workers int) error {
	m := w.m
	if m != nil {
		m.ObserveBatch(len(pairs))
	}
	if w.cond != nil && w.cond.br == nil {
		return BatchEach(ctx, w, pairs, out, workers)
	}
	if m != nil && w.cond != nil {
		const stride = latencySampleMask + 1
		return eachRun(ctx, len(pairs), BatchBlock, workers, func(lo, hi int) {
			start := time.Now()
			fallback, visited := w.cond.reachBlock(pairs[lo:hi], out[lo:hi])
			d := time.Since(start)
			m.ObserveBlock(out[lo:hi], fallback, visited)
			if k := (hi+stride-1)/stride - (lo+stride-1)/stride; k > 0 {
				m.Latency.RecordN(d/time.Duration(hi-lo), int64(k))
			}
		})
	}
	bx, ok := w.inner.(BatchIndex)
	if !ok {
		return BatchEach(ctx, w, pairs, out, workers)
	}
	err := bx.BatchReach(ctx, pairs, out, workers)
	if err == nil && m != nil {
		m.ObserveBlock(out, 0, 0)
	}
	return err
}

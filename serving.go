package reach

// This file is the DB's serving state: the one immutable snapshot every
// plain-reachability read loads, the one function that replaces it, and
// the read path over it. The serving invariant:
//
//	answer(s, t) == reach in (snapshot graph ± snapshot overlay), always
//
// Readers load one snapshot through the atomic pointer and never lock.
// Group commit and the background reindexer (mutable.go) are the two
// producers: each builds its candidate off the hot path and hands it to
// publish. See DESIGN.md ("Serving state").

import (
	"context"
	"slices"

	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/scratch"
	"repro/internal/traversal"
)

// serving is one immutable snapshot of the plain engine: a frozen graph
// with its preprocessing memo, the index built over it, the overlay of
// mutations the index does not know (empty on a DB that is not mutable, or
// right after a rebuild), and the epoch publish stamped it with. A query
// loads exactly one snapshot, so every answer is internally consistent
// while commits and rebuilds publish new ones.
type serving struct {
	g     *Graph
	prep  *PreparedGraph
	ix    Index
	ov    *mutate.Overlay
	epoch uint64
}

// noOverlay is the overlay of every snapshot with no pending mutations to
// carry. Shared: an overlay is immutable, a commit builds the next one.
var noOverlay = mutate.NewOverlay()

// publish is the only place the serving snapshot changes. Under the
// writer lock it shows next the current snapshot and stores what next
// returns, stamped with the following epoch. A commit keeps cur.g and
// grows cur.ov; the reindexer, the only producer that changes the graph,
// folds forward from cur.g and rebases cur.ov onto the result.
func (db *DB) publish(next func(cur *serving) *serving) *serving {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	cur := db.cur.Load()
	st := next(cur)
	if cur != nil {
		st.epoch = cur.epoch + 1
	}
	db.cur.Store(st)
	if db.metrics != nil {
		db.metrics.ServingEpoch.Set(int64(st.epoch))
	}
	return st
}

// instrument prepares a freshly built index for publishing: its footprint
// goes to the metrics layer and, with metrics on, it is wrapped to record
// probe-level detail. Every producer calls it before publish, off the hot
// path.
func (db *DB) instrument(ix Index, g *Graph) Index {
	if db.metrics == nil {
		return ix
	}
	if b, ok := core.SizesOf(ix); ok {
		db.metrics.Index(ix.Name()).SetFootprint(int64(b.Offsets), int64(b.Labels), int64(b.Aux))
	}
	return core.Instrument(ix, g, db.metrics.Index(ix.Name()))
}

// reach is the plain-reachability decision. Exactness argument, by
// overlay shape:
//
//   - Empty overlay: the frozen index is the live graph. Probe it. This
//     is the whole path of a DB that is not mutable.
//   - Adds only: the live graph is a supergraph of the frozen one, so
//     the index's positives stay valid (probe first) and its negatives
//     can only be flipped by paths through added edges — found by the
//     anchor search over the added-edge set (reachWithAdds).
//   - Removals present: the index's positives are no longer trustworthy
//     (the certifying path may use a removed edge), so positives are
//     recomputed by BFS over the overlaid adjacency. Negatives stay
//     trustworthy when there are no adds — removing edges only shrinks
//     reachability — which gives the negative shortcut.
func (st *serving) reach(s, t V) bool {
	ov := st.ov
	switch {
	case ov.Empty():
		return st.ix.Reach(s, t)
	case s == t:
		return true
	case ov.RemovedCount() == 0:
		if st.ix.Reach(s, t) {
			return true
		}
		return st.reachWithAdds(s, t)
	case ov.AddedCount() == 0 && !st.ix.Reach(s, t):
		return false
	default:
		return st.bfsOverlaid(s, t)
	}
}

// reachWithAdds decides s→t on base+adds given the frozen index already
// said no on the base graph alone. Any witnessing path must cross added
// edges; between crossings it runs on the base graph, where the index is
// exact. So search over "anchors": s plus the heads of activated added
// edges. An added edge (u, v) activates when some anchor base-reaches u;
// an anchor that base-reaches t wins. Each of the A added edges
// activates at most once, giving O(A²) index probes worst case — A is
// bounded by the rebuild threshold, and probes are microseconds. The
// anchors (Queue), the edge list (Queue2 → Aux) and the set of anchored
// vertices all live in the query arena.
func (st *serving) reachWithAdds(s, t V) bool {
	sc := scratch.Get(st.g.N())
	defer scratch.Put(sc)
	for _, k := range st.ov.Added() {
		u, v := mutate.KeyEdge(k)
		sc.Queue2 = append(sc.Queue2, u)
		sc.Aux = append(sc.Aux, v)
	}
	anchored := sc.Visited()
	anchored.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	for i := 0; i < len(sc.Queue); i++ {
		a := sc.Queue[i]
		if i > 0 && (a == t || st.ix.Reach(a, t)) {
			// i == 0 is s itself, whose base probe the caller already made.
			return true
		}
		for j, u := range sc.Queue2 {
			v := sc.Aux[j]
			if !anchored.Test(int(v)) && (a == u || st.ix.Reach(a, u)) {
				anchored.Set(int(v))
				sc.Queue = append(sc.Queue, v)
			}
		}
	}
	return false
}

// bfsOverlaid decides s→t by BFS over the overlaid adjacency. The exact
// fallback when removals invalidate the frozen index's positives.
func (st *serving) bfsOverlaid(s, t V) bool {
	sc := scratch.Get(st.g.N())
	defer scratch.Put(sc)
	return st.bfs(sc, s, t)
}

// bfs runs a plain BFS from s over the overlaid adjacency — base
// successors minus removed edges plus added ones — in the arena sc, until
// it discovers t. sc.Queue holds the vertices in discovery order and
// sc.Aux, in parallel, the queue position each was discovered from, so
// the shortest path to a found t (the queue's last entry) can be read
// back without per-vertex storage.
func (st *serving) bfs(sc *scratch.T, s, t V) bool {
	visited := sc.Visited()
	visited.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	sc.Aux = append(sc.Aux, 0)
	for qi := 0; qi < len(sc.Queue); qi++ {
		found := st.eachSucc(sc.Queue[qi], func(v V) bool {
			if visited.Test(int(v)) {
				return false
			}
			visited.Set(int(v))
			sc.Queue = append(sc.Queue, v)
			sc.Aux = append(sc.Aux, V(qi))
			return v == t
		})
		if found {
			return true
		}
	}
	return false
}

// eachSucc iterates u's successors in the live graph (base minus removed
// plus added); fn returning true stops the iteration and is propagated.
// The removed edges out of u are a sorted subset of the sorted Succ(u), so
// one merge walk drops them.
func (st *serving) eachSucc(u V, fn func(v V) bool) bool {
	ov := st.ov
	removed := ov.RemovedSucc(u)
	for _, v := range st.g.Succ(u) {
		if len(removed) > 0 && V(removed[0]) == v {
			removed = removed[1:]
			continue
		}
		if fn(v) {
			return true
		}
	}
	for _, k := range ov.AddedSucc(u) {
		if fn(V(k)) {
			return true
		}
	}
	return false
}

// witnessPath returns a shortest s→t path on the live graph: one BFS on
// the frozen graph when nothing is pending, else read back from the
// overlaid BFS's discovery links. Caller has established reachability.
func (st *serving) witnessPath(s, t V) []V {
	if st.ov.Empty() {
		return traversal.WitnessPath(st.g, s, t)
	}
	if s == t {
		return []V{s}
	}
	sc := scratch.Get(st.g.N())
	defer scratch.Put(sc)
	if !st.bfs(sc, s, t) {
		return nil
	}
	var path []V
	for i := len(sc.Queue) - 1; i > 0; i = int(sc.Aux[i]) {
		path = append(path, sc.Queue[i])
	}
	path = append(path, s)
	slices.Reverse(path)
	return path
}

// batchIndex is the snapshot seen as the Index a batch runs against: the
// frozen index itself when nothing is pending, else the overlaid adapter.
func (st *serving) batchIndex() Index {
	if st.ov.Empty() {
		return st.ix
	}
	return overlaid{st}
}

// overlaid is a snapshot with pending mutations seen as an Index — every
// Reach is the exact delta-overlay decision — so a batch over a non-empty
// overlay runs through the same call as any other.
type overlaid struct{ *serving }

func (o overlaid) Name() string      { return o.ix.Name() }
func (o overlaid) Stats() Stats      { return o.ix.Stats() }
func (o overlaid) Reach(s, t V) bool { return o.reach(s, t) }

// BatchReach implements core.BatchIndex: the adapter hides the
// instrumented index underneath from core.BatchReach, so it counts the
// batch there itself, as that index would have, then answers pair by pair.
func (o overlaid) BatchReach(ctx context.Context, pairs []Pair, out []bool, workers int) error {
	if w, ok := o.ix.(*core.Instrumented); ok { // only ever made with metrics on
		w.Metrics().ObserveBatch(len(pairs))
	}
	return core.BatchEach(ctx, o, pairs, out, workers)
}

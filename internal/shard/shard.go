// Package shard partitions the SCC condensation DAG of a graph into k
// edge-balanced topological ranges, builds one reachability index per
// shard, and answers global queries through a 2-hop summary index over
// the boundary (cut) vertices — the partitioned-index design that keeps
// every per-partition index small while cross-partition queries resolve
// as local-src → boundary → local-dst.
//
// The partitioner assigns condensation components to shards in
// topological order (component ids from Tarjan are in reverse topological
// order, so walking ids downward walks the DAG forward), cutting when the
// accumulated edge weight passes the next balance target. Contiguous
// topological ranges give the two invariants every query relies on:
//
//   - any DAG path between two components of the same shard stays inside
//     that shard (every intermediate component's topological position
//     lies between the endpoints'), so same-shard queries are answered
//     entirely by that shard's local index; and
//   - every cross-shard edge goes from a lower shard id to a higher one,
//     so s can only reach t across shards when shard(s) < shard(t).
//
// Cross-shard queries decompose at the cut: s reaches t iff some exit of
// shard(s) (a boundary component with an outgoing cut edge) is locally
// reachable from s, some entry of shard(t) locally reaches t, and the
// exit reaches the entry in the boundary summary graph — the cut edges
// plus, per shard, one closure edge for every entry that locally reaches
// an exit. The summary is indexed with a pruned 2-hop labeling, so the
// global decision costs local probes at the two endpoint shards plus
// summary lookups.
//
// Determinism matters more than cut quality here: the partition, the
// summary, and (given a deterministic BuildFunc) every per-shard index
// are pure functions of the graph and k, at any worker count.
package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pll"
)

// boundRef locates one boundary component from a shard's point of view.
type boundRef struct {
	local uint32 // vertex id in the shard's sub-DAG
	sid   uint32 // vertex id in the summary graph
}

// Plan is the deterministic k-way partition of one graph's condensation:
// the component→shard assignment, the per-shard sub-DAGs (intra-shard
// edges over shard-local ids), and the boundary summary graph.
type Plan struct {
	k       int
	g       *graph.Digraph
	comp    []uint32 // original vertex -> condensation component
	shardOf []uint32 // component -> shard
	local   []uint32 // component -> local id within its shard's sub-DAG
	subs    []*graph.Digraph

	exits    [][]boundRef // per shard: boundary comps with outgoing cut edges
	entries  [][]boundRef // per shard: boundary comps with incoming cut edges
	boundary []int        // per shard: distinct boundary components
	verts    []int        // per shard: original vertices
	summary  *graph.Digraph
	cut      int // cross-shard condensation edges
}

// NewPlan partitions prep's condensation into (at most) k edge-balanced
// contiguous topological ranges and assembles the sub-DAGs and boundary
// summary. k is clamped to [1, number of components]; workers bounds the
// parallelism of the closure sweep (0 = GOMAXPROCS).
func NewPlan(prep *core.Prepared, k, workers int) *Plan {
	cond, _ := prep.Condensation()
	dag := cond.DAG
	count := dag.N()
	if k < 1 {
		k = 1
	}
	if k > count {
		k = count
	}
	if count == 0 {
		// Empty graph: one empty shard keeps every invariant trivially.
		return &Plan{
			k: 1, g: prep.Graph(), comp: cond.Comp,
			shardOf: nil, local: nil,
			subs:     []*graph.Digraph{graph.NewBuilder(0).MustFreeze()},
			exits:    make([][]boundRef, 1),
			entries:  make([][]boundRef, 1),
			boundary: make([]int, 1), verts: make([]int, 1),
			summary: graph.NewBuilder(0).MustFreeze(),
		}
	}

	p := &Plan{k: k, g: prep.Graph(), comp: cond.Comp}
	p.shardOf = make([]uint32, count)
	p.local = make([]uint32, count)

	// Edge-balanced contiguous cut, walking components in topological
	// order (= component id descending). Weight outdeg+1 balances edges
	// while guaranteeing progress on edge-free stretches; the forced
	// advance keeps at least one component in every remaining shard.
	total := dag.M() + count
	cum, s := 0, 0
	nLocal := make([]int, k)
	for pos := 0; pos < count; pos++ {
		c := count - 1 - pos
		p.shardOf[c] = uint32(s)
		p.local[c] = uint32(nLocal[s])
		nLocal[s]++
		cum += dag.OutDegree(graph.V(c)) + 1
		if s+1 < k {
			rem := count - 1 - pos // components after this one
			need := k - 1 - s      // shards after this one
			if rem == need || (rem > need && cum*k >= (s+1)*total) {
				s++
			}
		}
	}

	// Original-vertex census per shard.
	p.verts = make([]int, k)
	for _, c := range cond.Comp {
		p.verts[p.shardOf[c]]++
	}

	// Sub-DAGs (intra-shard edges, local ids) and the cut-edge census.
	builders := make([]*graph.Builder, k)
	for i := range builders {
		builders[i] = graph.NewBuilder(nLocal[i])
	}
	hasOut := make([]bool, count)
	hasIn := make([]bool, count)
	dag.Edges(func(e graph.Edge) bool {
		su, sv := p.shardOf[e.From], p.shardOf[e.To]
		if su == sv {
			builders[su].AddEdge(p.local[e.From], p.local[e.To])
		} else {
			p.cut++
			hasOut[e.From] = true
			hasIn[e.To] = true
		}
		return true
	})
	p.subs = make([]*graph.Digraph, k)
	for i, b := range builders {
		p.subs[i] = b.MustFreeze()
	}

	// Summary ids for boundary components, assigned in topological order
	// so the summary graph is deterministic and acyclic by construction.
	sid := make([]uint32, count)
	numBound := 0
	p.exits = make([][]boundRef, k)
	p.entries = make([][]boundRef, k)
	p.boundary = make([]int, k)
	for pos := 0; pos < count; pos++ {
		c := count - 1 - pos
		if !hasOut[c] && !hasIn[c] {
			continue
		}
		sid[c] = uint32(numBound)
		numBound++
		sh := p.shardOf[c]
		p.boundary[sh]++
		ref := boundRef{local: p.local[c], sid: sid[c]}
		if hasOut[c] {
			p.exits[sh] = append(p.exits[sh], ref)
		}
		if hasIn[c] {
			p.entries[sh] = append(p.entries[sh], ref)
		}
	}

	// Closure sweep: for every entry, the exits of its own shard it
	// locally reaches become summary edges (a path crossing an
	// intermediate shard enters at an entry and leaves at an exit).
	// Shard-local ids ascend in topological order (they are assigned
	// walking components forward), so one descending pass per shard
	// propagates exit-reachability bitsets from successors — O((n+m) *
	// words) per shard rather than one traversal per entry. Shards sweep
	// independently; results land in shard-indexed slots so the summary
	// is identical at any worker count.
	closed := make([][][2]uint32, k)
	par.Do(workers, k, func(i int) {
		exits, entries := p.exits[i], p.entries[i]
		if len(exits) == 0 || len(entries) == 0 {
			return
		}
		sub := p.subs[i]
		n := sub.N()
		words := (len(exits) + 63) / 64
		bits := make([]uint64, n*words)
		exitOrd := make([]int32, n)
		for v := range exitOrd {
			exitOrd[v] = -1
		}
		for j, e := range exits {
			exitOrd[e.local] = int32(j)
		}
		for v := n - 1; v >= 0; v-- {
			row := bits[v*words : (v+1)*words]
			if j := exitOrd[v]; j >= 0 {
				row[j/64] |= 1 << (j % 64)
			}
			for _, w := range sub.Succ(uint32(v)) {
				wrow := bits[int(w)*words : (int(w)+1)*words]
				for b := range row {
					row[b] |= wrow[b]
				}
			}
		}
		var pairs [][2]uint32
		for _, h := range entries {
			row := bits[int(h.local)*words : (int(h.local)+1)*words]
			for j, e := range exits {
				if e.local == h.local {
					continue
				}
				if row[j/64]&(1<<(j%64)) != 0 {
					pairs = append(pairs, [2]uint32{h.sid, e.sid})
				}
			}
		}
		closed[i] = pairs
	})

	sb := graph.NewBuilder(numBound)
	dag.Edges(func(e graph.Edge) bool {
		if p.shardOf[e.From] != p.shardOf[e.To] {
			sb.AddEdge(sid[e.From], sid[e.To])
		}
		return true
	})
	for i := 0; i < k; i++ {
		for _, pr := range closed[i] {
			sb.AddEdge(pr[0], pr[1])
		}
	}
	p.summary = sb.MustFreeze()
	return p
}

// K returns the effective shard count (after clamping).
func (p *Plan) K() int { return p.k }

// Sub returns shard i's sub-DAG (intra-shard condensation edges over
// shard-local vertex ids).
func (p *Plan) Sub(i int) *graph.Digraph { return p.subs[i] }

// Summary returns the boundary summary graph.
func (p *Plan) Summary() *graph.Digraph { return p.summary }

// CutEdges returns the number of cross-shard condensation edges.
func (p *Plan) CutEdges() int { return p.cut }

// BuildFunc constructs the local index of one shard over its sub-DAG.
// It must be deterministic in (shard, sub) for the whole sharded index to
// be deterministic, and is called concurrently for distinct shards.
type BuildFunc func(shard int, sub *graph.Digraph) (core.Index, error)

// Index is a sharded reachability index over the original graph's vertex
// ids: per-shard local indexes plus the 2-hop boundary summary. It
// implements core.Index (plus core.Sized and core.BatchIndex) so it slots
// into the existing DB/query machinery unchanged.
type Index struct {
	plan  *Plan
	ixs   []core.Index
	sum   *pll.Index // nil when the partition has no boundary
	stats core.Stats

	probes    []atomic.Int64 // per-shard local probe counters
	sumProbes atomic.Int64
}

// Build partitions prep into k shards via NewPlan, constructs the k local
// indexes in parallel (workers caps the pool; 0 = GOMAXPROCS), and
// indexes the boundary summary with a pruned 2-hop labeling.
//
// Failure semantics are all-or-nothing: an error from any shard's
// BuildFunc fails the whole build, and a panic on a shard's build
// goroutine is re-raised here (as par.WorkerPanic) after the pool drains
// — callers holding a core.Recover boundary see ErrIndexPanic, and no
// partially-sharded index ever serves.
func Build(prep *core.Prepared, k, workers int, build BuildFunc) (*Index, error) {
	start := time.Now()
	p := NewPlan(prep, k, workers)
	ixs := make([]core.Index, p.k)
	errs := make([]error, p.k)
	par.Do(workers, p.k, func(i int) {
		ixs[i], errs[i] = build(i, p.subs[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, p.k, err)
		}
		if ixs[i] == nil {
			return nil, fmt.Errorf("shard %d/%d: build returned no index", i, p.k)
		}
	}
	x := &Index{plan: p, ixs: ixs, probes: make([]atomic.Int64, p.k)}
	if p.summary.N() > 0 {
		x.sum = pll.New(p.summary, pll.Options{Order: pll.OrderDegree})
	}
	x.refreshStats(time.Since(start))
	return x, nil
}

func (x *Index) refreshStats(build time.Duration) {
	var st core.Stats
	for _, ix := range x.ixs {
		s := ix.Stats()
		st.Entries += s.Entries
		st.Bytes += s.Bytes
	}
	if x.sum != nil {
		s := x.sum.Stats()
		st.Entries += s.Entries
		st.Bytes += s.Bytes
	}
	// Translation maps: comp (per original vertex) + shard/local (per
	// component), 4 bytes each.
	st.Bytes += len(x.plan.comp)*4 + len(x.plan.shardOf)*8
	st.BuildTime = build
	x.stats = st
}

// Name identifies the sharded engine.
func (x *Index) Name() string { return "sharded" }

// Stats aggregates the per-shard and summary footprints.
func (x *Index) Stats() core.Stats { return x.stats }

// Sizes splits the aggregate footprint: per-shard breakdowns are summed
// where available (indexes without one are charged whole to Aux), and the
// translation maps land in Aux.
func (x *Index) Sizes() core.SizeBreakdown {
	var b core.SizeBreakdown
	add := func(ix core.Index) {
		if s, ok := core.SizesOf(ix); ok {
			b.Offsets += s.Offsets
			b.Labels += s.Labels
			b.Aux += s.Aux
		} else {
			b.Aux += ix.Stats().Bytes
		}
	}
	for _, ix := range x.ixs {
		add(ix)
	}
	if x.sum != nil {
		add(x.sum)
	}
	b.Aux += len(x.plan.comp)*4 + len(x.plan.shardOf)*8
	return b
}

// K returns the shard count.
func (x *Index) K() int { return x.plan.k }

// Plan returns the partition the index was built over.
func (x *Index) Plan() *Plan { return x.plan }

// Shard returns shard i's local index (tests introspect it; the serving
// layer snapshots through the build callback instead).
func (x *Index) Shard(i int) core.Index { return x.ixs[i] }

// Reach answers Qr(s, t) over original vertex ids. Same-component pairs
// are true by SCC membership; same-shard pairs probe that shard's local
// index; cross-shard pairs resolve through the boundary summary. A pair
// whose source lives in a later shard than its target is false without
// any probe (cut edges only run forward through the shard order).
func (x *Index) Reach(s, t graph.V) bool {
	cs, ct := x.plan.comp[s], x.plan.comp[t]
	if cs == ct {
		return true
	}
	ss, st := x.plan.shardOf[cs], x.plan.shardOf[ct]
	switch {
	case ss == st:
		x.probes[ss].Add(1)
		return x.ixs[ss].Reach(x.plan.local[cs], x.plan.local[ct])
	case ss > st:
		return false
	}
	return x.cross(cs, ct, ss, st)
}

// cross decides a shard(s) < shard(t) query: exits of shard(s) locally
// reachable from s, entries of shard(t) locally reaching t, connected in
// the summary.
func (x *Index) cross(cs, ct, ss, st uint32) bool {
	exits, entries := x.plan.exits[ss], x.plan.entries[st]
	if len(exits) == 0 || len(entries) == 0 || x.sum == nil {
		return false
	}
	ls, lt := x.plan.local[cs], x.plan.local[ct]
	var re []uint32
	x.probes[ss].Add(1)
	for _, e := range exits {
		if x.ixs[ss].Reach(ls, e.local) {
			re = append(re, e.sid)
		}
	}
	if len(re) == 0 {
		return false
	}
	x.probes[st].Add(1)
	for _, h := range entries {
		if !x.ixs[st].Reach(h.local, lt) {
			continue
		}
		x.sumProbes.Add(1)
		for _, es := range re {
			if x.sum.Reach(es, h.sid) {
				return true
			}
		}
	}
	return false
}

// batchCtxStride is how many batch items a worker answers between
// context polls.
const batchCtxStride = 64

// BatchReach implements core.BatchIndex with per-shard scatter-gather:
// same-shard pairs are bucketed by shard and each bucket runs on its own
// worker against that shard's local index (answers land in caller-indexed
// slots of out, so the result is deterministic at any worker count);
// cross-shard pairs form one extra bucket probing through the summary.
// out must have len(pairs) slots. Every pair is validated before any
// query runs.
func (x *Index) BatchReach(ctx context.Context, pairs []core.Pair, out []bool, workers int) error {
	if len(out) != len(pairs) {
		return fmt.Errorf("shard: batch out has %d slots for %d pairs", len(out), len(pairs))
	}
	n := x.plan.g.N()
	for _, p := range pairs {
		if err := core.CheckPair(n, p.S, p.T); err != nil {
			return err
		}
	}
	// Bucket by answering shard; trivial pairs resolve during the scan.
	buckets := make([][]int32, x.plan.k+1)
	crossBucket := x.plan.k
	for i, p := range pairs {
		cs, ct := x.plan.comp[p.S], x.plan.comp[p.T]
		if cs == ct {
			out[i] = true
			continue
		}
		ss, st := x.plan.shardOf[cs], x.plan.shardOf[ct]
		switch {
		case ss == st:
			buckets[ss] = append(buckets[ss], int32(i))
		case ss > st:
			out[i] = false
		default:
			buckets[crossBucket] = append(buckets[crossBucket], int32(i))
		}
	}
	var canceled atomic.Bool
	par.Do(workers, len(buckets), func(b int) {
		for j, i := range buckets[b] {
			if j%batchCtxStride == 0 {
				if canceled.Load() {
					return
				}
				if ctx != nil && ctx.Err() != nil {
					canceled.Store(true)
					return
				}
			}
			p := pairs[i]
			cs, ct := x.plan.comp[p.S], x.plan.comp[p.T]
			if b == crossBucket {
				out[i] = x.cross(cs, ct, x.plan.shardOf[cs], x.plan.shardOf[ct])
			} else {
				x.probes[b].Add(1)
				out[i] = x.ixs[b].Reach(x.plan.local[cs], x.plan.local[ct])
			}
		}
	})
	if canceled.Load() {
		return ctx.Err()
	}
	return nil
}

// ShardInfo is one shard's census for observability and benchmarks.
type ShardInfo struct {
	Shard        int    `json:"shard"`
	Comps        int    `json:"comps"`
	Vertices     int    `json:"vertices"`
	Edges        int    `json:"edges"`
	Boundary     int    `json:"boundary"`
	Exits        int    `json:"exits"`
	Entries      int    `json:"entries"`
	IndexName    string `json:"index"`
	IndexEntries int    `json:"index_entries"`
	IndexBytes   int    `json:"index_bytes"`
	Probes       int64  `json:"probes"`
}

// SummaryInfo describes the boundary summary structure.
type SummaryInfo struct {
	Boundary     int   `json:"boundary"`
	Edges        int   `json:"edges"`
	CutEdges     int   `json:"cut_edges"`
	IndexEntries int   `json:"index_entries"`
	IndexBytes   int   `json:"index_bytes"`
	Probes       int64 `json:"probes"`
}

// Shards snapshots the per-shard census, including the local-probe
// counters accumulated so far.
func (x *Index) Shards() []ShardInfo {
	infos := make([]ShardInfo, x.plan.k)
	for i := range infos {
		st := x.ixs[i].Stats()
		infos[i] = ShardInfo{
			Shard:        i,
			Comps:        x.plan.subs[i].N(),
			Vertices:     x.plan.verts[i],
			Edges:        x.plan.subs[i].M(),
			Boundary:     x.plan.boundary[i],
			Exits:        len(x.plan.exits[i]),
			Entries:      len(x.plan.entries[i]),
			IndexName:    x.ixs[i].Name(),
			IndexEntries: st.Entries,
			IndexBytes:   st.Bytes,
			Probes:       x.probes[i].Load(),
		}
	}
	return infos
}

// Summary snapshots the boundary summary census.
func (x *Index) Summary() SummaryInfo {
	info := SummaryInfo{
		Boundary: x.plan.summary.N(),
		Edges:    x.plan.summary.M(),
		CutEdges: x.plan.cut,
		Probes:   x.sumProbes.Load(),
	}
	if x.sum != nil {
		st := x.sum.Stats()
		info.IndexEntries = st.Entries
		info.IndexBytes = st.Bytes
	}
	return info
}

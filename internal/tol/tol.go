// Package tol implements TOL [55] (§3.2): the total-order framework for
// pruned 2-hop labeling, with support for dynamic graphs.
//
// Construction is the generic total-order pruned labeling (the same
// algorithm instantiated by TFL/DL/PLL), default order in-degree ×
// out-degree as in the TOL paper. Updates:
//
//   - InsertEdge runs the incremental label-repair of the total-order
//     framework: every hub that reaches u resumes its forward pruned BFS
//     through the new edge from v, and every hub reached from v resumes
//     its backward BFS from u. This restores the canonical-cover invariant
//     (the highest-priority vertex on any path between a pair labels both
//     endpoints) without touching unaffected labels.
//   - DeleteEdge rebuilds the labeling. The TOL paper repairs deletions
//     incrementally by exploiting the total order; that machinery is out
//     of scope here (see DESIGN.md), and a rebuild keeps the index exact
//     while still exercising the delete path of the E8 experiment.
//
// Storage: the bulk of the labeling is frozen in internal/labelstore flat
// CSR arrays — queries merge contiguous memory. Insert repair thaws only
// the touched rows into a small copy-on-write overlay; a rebuild (or
// delete) folds everything back into a fresh frozen store, so
// steady-state reads stay flat no matter how many inserts have happened
// since construction.
package tol

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/labelstore"
)

// Index is the TOL dynamic 2-hop index over a general digraph.
type Index struct {
	g      *core.DynGraph
	rank   []uint32
	byRank []graph.V // byRank[r] = vertex with rank r
	// in/out are the frozen label stores; inOv/outOv hold rows thawed by
	// insert repair, superseding the frozen row for that vertex.
	in, out     *labelstore.Store
	inOv, outOv map[graph.V][]uint32
	bin, bout   *labelstore.Builder // non-nil only during rebuild
	entries     int
	stamp       []uint64
	stampID     uint64
	stats       core.Stats
	chk         *core.Check // only set during the initial build
}

// New builds TOL over g using the in-degree × out-degree total order.
func New(g *graph.Digraph) *Index { return NewChecked(g, nil) }

// NewChecked is New under a cancellation checkpoint, ticked once per BFS
// dequeue of the initial build; nil runs unchecked. Incremental updates
// run unchecked (they are bounded by the repair frontier).
func NewChecked(g *graph.Digraph, chk *core.Check) *Index {
	start := time.Now()
	n := g.N()
	ix := &Index{g: core.NewDynGraph(g), stamp: make([]uint64, n), chk: chk}
	defer func() { ix.chk = nil }()
	key := func(v graph.V) int { return (g.InDegree(v) + 1) * (g.OutDegree(v) + 1) }
	vs := make([]graph.V, n)
	for i := range vs {
		vs[i] = graph.V(i)
	}
	sort.Slice(vs, func(i, j int) bool {
		ki, kj := key(vs[i]), key(vs[j])
		if ki != kj {
			return ki > kj
		}
		return vs[i] < vs[j]
	})
	ix.byRank = vs
	ix.rank = make([]uint32, n)
	for i, v := range vs {
		ix.rank[v] = uint32(i)
	}
	ix.rebuild()
	ix.stats.BuildTime = time.Since(start)
	return ix
}

// rebuild recomputes all labels by pruned BFS in rank order, emitting
// into pooled builder arenas and freezing flat at the end. Any thawed
// overlay rows are folded away.
func (ix *Index) rebuild() {
	n := ix.g.N()
	ix.in, ix.out = nil, nil
	ix.inOv, ix.outOv = nil, nil
	ix.bin = labelstore.NewBuilder(n)
	ix.bout = labelstore.NewBuilder(n)
	for r := 0; r < n; r++ {
		v := ix.byRank[r]
		ix.prunedBFS(v, uint32(r), v, true)
		ix.prunedBFS(v, uint32(r), v, false)
	}
	ix.in = ix.bin.Freeze()
	ix.out = ix.bout.Freeze()
	ix.bin.Release()
	ix.bout.Release()
	ix.bin, ix.bout = nil, nil
	ix.inOv = make(map[graph.V][]uint32)
	ix.outOv = make(map[graph.V][]uint32)
	ix.entries = ix.in.Entries() + ix.out.Entries()
	ix.refreshStats()
}

func (ix *Index) refreshStats() {
	ix.stats.Entries = ix.entries
	if ix.in == nil {
		return
	}
	overlay := 0
	for _, row := range ix.inOv {
		overlay += len(row) * 4
	}
	for _, row := range ix.outOv {
		overlay += len(row) * 4
	}
	fin, fout := ix.in.Footprint(), ix.out.Footprint()
	ix.stats.Bytes = fin.Total() + fout.Total() + len(ix.rank)*4 + len(ix.byRank)*4 + overlay
}

// Sizes implements core.Sized.
func (ix *Index) Sizes() core.SizeBreakdown {
	fin, fout := ix.in.Footprint(), ix.out.Footprint()
	aux := len(ix.rank)*4 + len(ix.byRank)*4
	for _, row := range ix.inOv {
		aux += len(row) * 4
	}
	for _, row := range ix.outOv {
		aux += len(row) * 4
	}
	return core.SizeBreakdown{
		Offsets: fin.Offsets + fout.Offsets,
		Labels:  fin.Labels + fout.Labels,
		Aux:     aux,
	}
}

// inRow returns the current Lin(u) as a sorted slice: the builder row
// during rebuild, the overlay row after repair, else the frozen row.
func (ix *Index) inRow(u graph.V) []uint32 {
	if ix.bin != nil {
		return ix.bin.Row(int(u))
	}
	if len(ix.inOv) != 0 {
		if row, ok := ix.inOv[u]; ok {
			return row
		}
	}
	return ix.in.Row(int(u))
}

func (ix *Index) outRow(u graph.V) []uint32 {
	if ix.bout != nil {
		return ix.bout.Row(int(u))
	}
	if len(ix.outOv) != 0 {
		if row, ok := ix.outOv[u]; ok {
			return row
		}
	}
	return ix.out.Row(int(u))
}

// insertIn adds rank r to Lin(u): into the builder during rebuild, else
// by thawing u's row into the overlay (copy-on-write).
func (ix *Index) insertIn(u graph.V, r uint32) {
	ix.entries++
	if ix.bin != nil {
		ix.bin.InsertSorted(int(u), r)
		return
	}
	row, ok := ix.inOv[u]
	if !ok {
		row = append(make([]uint32, 0, 8), ix.in.Row(int(u))...)
	}
	ix.inOv[u] = insertSorted(row, r)
}

func (ix *Index) insertOut(u graph.V, r uint32) {
	ix.entries++
	if ix.bout != nil {
		ix.bout.InsertSorted(int(u), r)
		return
	}
	row, ok := ix.outOv[u]
	if !ok {
		row = append(make([]uint32, 0, 8), ix.out.Row(int(u))...)
	}
	ix.outOv[u] = insertSorted(row, r)
}

// prunedBFS extends hub h's label coverage starting at vertex from: in the
// forward direction it adds h to Lin(w) of every newly covered w; backward
// it adds h to Lout(w). Used both at build time (from == h) and for
// incremental insert repair (from == the new edge endpoint).
func (ix *Index) prunedBFS(h graph.V, r uint32, from graph.V, forward bool) {
	ix.stampID++
	id := ix.stampID
	queue := []graph.V{from}
	ix.stamp[from] = id
	for qi := 0; qi < len(queue); qi++ {
		ix.chk.Tick()
		u := queue[qi]
		if u != h {
			// Pruning is only sound on certificates from strictly
			// higher-priority hubs (rank < r) — the canonical-cover
			// induction of the total-order framework — or when h already
			// labels u (an earlier run of h's BFS handled this frontier).
			if forward {
				if containsRank(ix.inRow(u), r) || ix.coveredBelow(h, u, r) {
					continue
				}
				ix.insertIn(u, r)
			} else {
				if containsRank(ix.outRow(u), r) || ix.coveredBelow(u, h, r) {
					continue
				}
				ix.insertOut(u, r)
			}
		}
		var next []graph.V
		if forward {
			next = ix.g.Succ(u)
		} else {
			next = ix.g.Pred(u)
		}
		for _, w := range next {
			if ix.stamp[w] != id && ix.rank[w] > r {
				ix.stamp[w] = id
				queue = append(queue, w)
			}
		}
	}
}

func insertSorted(s []uint32, x uint32) []uint32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

func containsRank(s []uint32, r uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= r })
	return i < len(s) && s[i] == r
}

// coveredBelow reports whether labels certify s → t using only hubs of
// rank strictly below limit (including the s/t-endpoint-as-hub cases).
func (ix *Index) coveredBelow(s, t graph.V, limit uint32) bool {
	if s == t {
		return true
	}
	ls, lt := ix.outRow(s), ix.inRow(t)
	rs, rt := ix.rank[s], ix.rank[t]
	if rt < limit && containsRank(ls, rt) {
		return true
	}
	if rs < limit && containsRank(lt, rs) {
		return true
	}
	i, j := 0, 0
	for i < len(ls) && j < len(lt) && ls[i] < limit && lt[j] < limit {
		switch {
		case ls[i] == lt[j]:
			return true
		case ls[i] < lt[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// covered reports whether current labels certify s → t (the three query
// cases of §3.2): one merge of two row slices, frozen or thawed, 0 allocs.
func (ix *Index) covered(s, t graph.V) bool {
	if s == t {
		return true
	}
	return labelstore.CoverRows(ix.outRow(s), ix.inRow(t), ix.rank[s], ix.rank[t])
}

// Name implements core.Index.
func (ix *Index) Name() string { return "TOL" }

// Reach answers Qr(s, t) from labels alone (complete index).
func (ix *Index) Reach(s, t graph.V) bool { return ix.covered(s, t) }

// Stats implements core.Index.
func (ix *Index) Stats() core.Stats { return ix.stats }

// InsertEdge adds (u, v) and repairs labels incrementally.
func (ix *Index) InsertEdge(u, v graph.V) error {
	if !ix.g.Insert(u, v) {
		return nil // already present
	}
	// Hubs that reach u extend forward through v; note u itself is a hub
	// for its own pairs.
	fwd := make([]uint32, 0, 8)
	fwd = append(fwd, ix.rank[u])
	fwd = append(fwd, ix.inRow(u)...)
	for _, r := range fwd {
		ix.prunedBFS(ix.byRank[r], r, v, true)
	}
	// Hubs reached from v extend backward through u.
	bwd := make([]uint32, 0, 8)
	bwd = append(bwd, ix.rank[v])
	bwd = append(bwd, ix.outRow(v)...)
	for _, r := range bwd {
		ix.prunedBFS(ix.byRank[r], r, u, false)
	}
	ix.refreshStats()
	return nil
}

// DeleteEdge removes (u, v) and rebuilds the labeling (see package doc).
func (ix *Index) DeleteEdge(u, v graph.V) error {
	if !ix.g.Delete(u, v) {
		return nil
	}
	ix.rebuild()
	return nil
}

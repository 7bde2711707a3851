// Package pll implements pruned 2-hop labeling (§3.2): every vertex v gets
// Lin(v) and Lout(v) hub sets; Qr(s, t) holds iff s ∈ Lin(t), t ∈ Lout(s),
// or Lin(t) ∩ Lout(s) ≠ ∅ (the paper's three cases). Labels are built by
// forward and backward pruned BFSs from the vertices in a strict total
// order: the BFS from v adds hub v only where no higher-priority hub
// already certifies the pair, and terminates branches at such vertices.
//
// The package implements the TOL-framework observation of §3.2 that TFL,
// DL and PLL are instantiations of the same algorithm under different
// total orders:
//
//	OrderDegree        — DL [25] / PLL [49] (proven equivalent in [25])
//	OrderTopological   — TFL-style topological priority [13] (DAG input)
//	OrderDegreeProduct — the in×out-degree ranking used by TOL [55]
//
// The index is complete and applies to general (cyclic) graphs directly —
// "unlike the tree-cover index, the 2-hop index can be directly applied to
// general graphs".
//
// Labels live in internal/labelstore flat CSR storage: build emits into
// pooled arenas, Freeze packs each direction into one offset table plus
// one contiguous []uint32, and queries are forward merges over contiguous
// memory.
package pll

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/labelstore"
	"repro/internal/order"
)

// Order selects the total order instantiation.
type Order int

// Total-order instantiations.
const (
	OrderDegree Order = iota
	OrderTopological
	OrderDegreeProduct
)

// Options configures the labeling.
type Options struct {
	Order Order
	// Name overrides the reported index name (e.g. "DL", "TFL"); default
	// derives from the order.
	Name string
	// Check is an optional cancellation checkpoint ticked once per BFS
	// dequeue of the labeling passes; nil runs unchecked.
	Check *core.Check
}

// Index is the pruned 2-hop label index.
type Index struct {
	name string
	// in and out hold hub ranks per vertex, ascending (hubs are
	// identified by their rank in the total order; lower rank = higher
	// priority), packed flat.
	in, out *labelstore.Store
	rank    []uint32
	stats   core.Stats
	// backing pins the snapshot mapping a zero-copy loaded index's
	// stores alias (see FromMapped); nil for built indexes.
	backing interface{ Close() error }
}

// New builds the pruned 2-hop labeling of g under the configured order.
func New(g *graph.Digraph, opts Options) *Index {
	start := time.Now()
	n := g.N()
	var vs []graph.V
	name := opts.Name
	switch opts.Order {
	case OrderTopological:
		topo, ok := order.Topological(g)
		if ok {
			// Prioritize by a mix: topological position folded from both
			// ends, approximating TFL's level folding: highest priority to
			// the vertices in the middle "folds" is complex; plain
			// topological order is the documented simplification.
			vs = topo
		} else {
			// Cyclic input: fall back to degree order (TFL assumes DAGs).
			vs = order.ByDegreeDesc(g)
		}
		if name == "" {
			name = "TFL"
		}
	case OrderDegreeProduct:
		vs = order.ByDegreeProductDesc(g)
		if name == "" {
			name = "TOL-order"
		}
	default:
		vs = order.ByDegreeDesc(g)
		if name == "" {
			name = "PLL"
		}
	}
	ix := &Index{
		name: name,
		rank: make([]uint32, n),
	}
	for i, v := range vs {
		ix.rank[v] = uint32(i)
	}
	bin := labelstore.NewBuilder(n)
	bout := labelstore.NewBuilder(n)
	queue := make([]graph.V, 0, n)
	// stamp[w] == 2*i+1 (forward) / 2*i+2 (backward) marks w visited by the
	// i-th hub's BFS; avoids clearing a visited array per hub.
	stamp := make([]uint32, n)
	for i, v := range vs {
		r := uint32(i)
		// Forward BFS: v reaches u ⇒ candidate hub entry v ∈ Lin(u).
		fs := uint32(2*i + 1)
		queue = queue[:0]
		queue = append(queue, v)
		stamp[v] = fs
		for qi := 0; qi < len(queue); qi++ {
			opts.Check.Tick()
			u := queue[qi]
			if u != v {
				if buildCovered(bout, bin, ix.rank, v, u) {
					continue // pruned: higher-priority hub certifies (v,u)
				}
				bin.Append(int(u), r)
			}
			for _, w := range g.Succ(u) {
				if stamp[w] != fs && ix.rank[w] > r {
					stamp[w] = fs
					queue = append(queue, w)
				}
			}
		}
		// Backward BFS: u reaches v ⇒ candidate v ∈ Lout(u).
		bs := uint32(2*i + 2)
		queue = queue[:0]
		queue = append(queue, v)
		stamp[v] = bs
		for qi := 0; qi < len(queue); qi++ {
			opts.Check.Tick()
			u := queue[qi]
			if u != v {
				if buildCovered(bout, bin, ix.rank, u, v) {
					continue
				}
				bout.Append(int(u), r)
			}
			for _, w := range g.Pred(u) {
				if stamp[w] != bs && ix.rank[w] > r {
					stamp[w] = bs
					queue = append(queue, w)
				}
			}
		}
	}
	ix.in = bin.Freeze()
	ix.out = bout.Freeze()
	bin.Release()
	bout.Release()
	ix.refreshStats()
	ix.stats.BuildTime = time.Since(start)
	return ix
}

func (ix *Index) refreshStats() {
	fin, fout := ix.in.Footprint(), ix.out.Footprint()
	ix.stats.Entries = ix.in.Entries() + ix.out.Entries()
	ix.stats.Bytes = fin.Total() + fout.Total() + len(ix.rank)*4
}

// buildCovered reports whether the partial labels accumulating in the
// builders already certify s → t, including the s ∈ Lin(t) / t ∈ Lout(s)
// hub-is-endpoint cases.
func buildCovered(bout, bin *labelstore.Builder, rank []uint32, s, t graph.V) bool {
	if s == t {
		return true
	}
	return labelstore.CoverRows(bout.Row(int(s)), bin.Row(int(t)), rank[s], rank[t])
}

// covered reports whether the frozen labels certify s → t (the three
// query cases of §3.2): one merge of two row slices, 0 allocs.
func (ix *Index) covered(s, t graph.V) bool {
	if s == t {
		return true
	}
	return labelstore.CoverRows(ix.out.Row(int(s)), ix.in.Row(int(t)), ix.rank[s], ix.rank[t])
}

// Name implements core.Index.
func (ix *Index) Name() string { return ix.name }

// N returns the number of vertices the labels cover — snapshot loaders
// use it to detect pairing a snapshot with the wrong graph.
func (ix *Index) N() int { return len(ix.rank) }

// Reach answers Qr(s, t) by hub intersection — a pure index lookup
// (complete index).
func (ix *Index) Reach(s, t graph.V) bool { return ix.covered(s, t) }

// Stats implements core.Index.
func (ix *Index) Stats() core.Stats { return ix.stats }

// Sizes implements core.Sized: offset tables, label payloads, and the
// rank array split out.
func (ix *Index) Sizes() core.SizeBreakdown {
	fin, fout := ix.in.Footprint(), ix.out.Footprint()
	return core.SizeBreakdown{
		Offsets: fin.Offsets + fout.Offsets,
		Labels:  fin.Labels + fout.Labels,
		Aux:     len(ix.rank) * 4,
	}
}

// LabelSizes returns (total Lin entries, total Lout entries); E2 reports
// them against the full TC size.
func (ix *Index) LabelSizes() (in, out int) {
	return ix.in.Entries(), ix.out.Entries()
}

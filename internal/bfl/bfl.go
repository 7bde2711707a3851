// Package bfl implements BFL [41] (§3.3): approximate transitive closure
// via Bloom-filter labels, "one of the state-of-the-art techniques for
// plain reachability indexing".
//
// Every vertex v hashes to a position in each filter's bit space. Lout(v)
// is a Bloom filter over {hash(w) : w reachable from v}, computed in one
// reverse-topological pass (Lout(v) = own bit ∪ children's filters); Lin
// is the dual. The AP() contra-positive of §3.3 gives the definite
// negative: if Lout(t) ⊄ Lout(s) then Out(t) ⊄ Out(s), so t is not
// reachable from s — no false negatives by construction. A DFS forest
// adds two exact tests: its postorder is a reverse topological order of
// the DAG, so post(s) < post(t) is a definite negative, and t inside s's
// subtree interval is a definite positive. Undecided queries fall back to
// a DFS pruned by the same tests.
//
// All of a vertex's labels live in one 64-byte record, so a probe reads
// one cache line per endpoint and the guided DFS one per vertex it visits.
package bfl

import (
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/scratch"
)

// Options configures BFL. The filter widths are not options: they are
// what fits beside the interval in one cache line (see record).
type Options struct {
	// Seed scrambles the vertex→bit hash.
	Seed int64
	// Workers caps the pool running the per-partition Bloom-filter merge
	// passes (0 = GOMAXPROCS, 1 = serial). Each pass is a
	// level-synchronized sweep — a vertex's filter is the union of its
	// own bit and its neighbours' finished filters — so the index is
	// identical at any worker count.
	Workers int
	// Spans, when non-nil, receives named build-phase durations.
	Spans *obs.Spans
}

// record is everything a probe reads about one vertex: its DFS postorder
// number, the least postorder number in its DFS subtree (the subtree is
// exactly the interval [min, post]), a 256-bit Lout and a 192-bit Lin.
// The 256/192 split was measured against 192/192 at n=10⁶ (EXPERIMENTS.md
// E23): the wider Lout decides more and probes faster.
type record struct {
	post, min uint32
	out       [4]uint64
	in        [3]uint64
}

// recordSize is 64 bytes: one cache line on amd64 and most arm64 parts.
const recordSize = int(unsafe.Sizeof(record{}))

// Index is the BFL partial index over a DAG: one line-aligned record per
// vertex.
type Index struct {
	g     *graph.Digraph
	rec   []record
	stats core.Stats
	// backing pins the snapshot mapping a zero-copy loaded index's
	// records alias (see FromMapped); nil for built indexes.
	backing interface{ Close() error }
}

// makeRecords returns n zeroed records, the first on a 64-byte boundary,
// so that record v is exactly one cache line.
func makeRecords(n int) []record {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+1)*recordSize/8) // one spare line to align within
	skip := (-int(uintptr(unsafe.Pointer(&words[0]))) & (recordSize - 1)) / 8
	return unsafe.Slice((*record)(unsafe.Pointer(&words[skip])), n)
}

// New builds BFL over a DAG.
func New(dag *graph.Digraph, opts Options) *Index {
	start := time.Now()
	n := dag.N()
	rec := makeRecords(n)
	// The DFS intervals and the level buckets are independent and write
	// disjoint data, so they run side by side; "bfl/levels" opens and
	// closes inside "bfl/dfs-intervals", keeping the spans LIFO.
	var buckets [][]graph.V
	end := opts.Spans.Start("bfl/dfs-intervals")
	par.Do(opts.Workers, 2, func(i int) {
		if i == 1 {
			endLevels := opts.Spans.Start("bfl/levels")
			buckets = order.LevelBuckets(dag)
			endLevels()
			return
		}
		po := order.DFSForest(dag, order.Sources(dag), nil)
		for v := range rec {
			rec[v].post, rec[v].min = po.Post[v], po.Min[v]
		}
	})
	end()
	seed := uint64(opts.Seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	hash := func(v graph.V) uint64 {
		x := (uint64(v) + 1) * seed
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		return x ^ x>>29
	}
	nw := par.Resolve(opts.Workers)
	// Forward filters, deepest level first: successors' filters are
	// complete before a vertex unions them in. Bit h mod 256.
	end = opts.Spans.StartN("bfl/filters-out", nw)
	par.Sweep(opts.Workers, order.Reversed(buckets), func(_ int, v graph.V) {
		r := &rec[v]
		h := hash(v)
		r.out[h>>6%4] |= 1 << (h % 64)
		for _, u := range dag.Succ(v) {
			src := &rec[u].out
			for k := range r.out {
				r.out[k] |= src[k]
			}
		}
	})
	end()
	// Backward filters, shallowest level first. Bit (h>>8) mod 192.
	end = opts.Spans.StartN("bfl/filters-in", nw)
	par.Sweep(opts.Workers, buckets, func(_ int, v graph.V) {
		r := &rec[v]
		pos := hash(v) >> 8 % 192
		r.in[pos/64] |= 1 << (pos % 64)
		for _, u := range dag.Pred(v) {
			src := &rec[u].in
			for k := range r.in {
				r.in[k] |= src[k]
			}
		}
	})
	end()
	ix := bind(dag, rec, nil)
	ix.stats.BuildTime = time.Since(start)
	return ix
}

// bind makes an index of records over dag, pinning backing if non-nil.
func bind(dag *graph.Digraph, rec []record, backing interface{ Close() error }) *Index {
	st := core.Stats{Entries: len(rec), Bytes: len(rec) * recordSize}
	return &Index{g: dag, rec: rec, stats: st, backing: backing}
}

// Name implements core.Index.
func (ix *Index) Name() string { return "BFL" }

// refutes reports whether the filters prove s cannot reach t:
// Lout(t) ⊆ Lout(s) and Lin(s) ⊆ Lin(t) are necessary for reachability.
// Unrolled, it inlines and reads each line once without a loop branch.
func refutes(s, t *record) bool {
	return t.out[0]&^s.out[0]|t.out[1]&^s.out[1]|t.out[2]&^s.out[2]|t.out[3]&^s.out[3]|
		s.in[0]&^t.in[0]|s.in[1]&^t.in[1]|s.in[2]&^t.in[2] != 0
}

// decide is TryReach on the records of s ≠ t. The postorder of a DFS
// forest over a DAG is a reverse topological order, so post(s) < post(t)
// is a definite negative, checked first because it needs two words; past
// it, t lies in s's subtree [min(s), post(s)] iff min(s) ≤ post(t).
func decide(s, t *record) (reach, ok bool) {
	if s.post < t.post || refutes(s, t) {
		return false, true
	}
	sub := s.min <= t.post
	return sub, sub
}

// TryReach implements core.Partial.
func (ix *Index) TryReach(s, t graph.V) (bool, bool) {
	if s == t {
		return true, true
	}
	return decide(&ix.rec[s], &ix.rec[t])
}

// Reach answers Qr(s, t) exactly via filter-guided DFS.
func (ix *Index) Reach(s, t graph.V) bool {
	r, _ := ix.search(s, t)
	return r
}

// ReachCounted implements core.ReachCounter: the same guided DFS as
// Reach, additionally reporting how many vertices it expanded and whether
// the index labels decided the query without any expansion.
func (ix *Index) ReachCounted(s, t graph.V) (bool, int, bool) {
	r, n := ix.search(s, t)
	return r, n, n == 0
}

// search is core.CountingGuidedDFS with TryReach as the filter,
// specialised: t's record is loaded once, the per-visit test is decide
// written out in the loop rather than a call through a func value, and
// the adjacency is the concrete CSR. It expands and counts exactly what
// the generic loop does.
func (ix *Index) search(s, t graph.V) (bool, int) {
	if s == t {
		return true, 0
	}
	rec, rt := ix.rec, &ix.rec[t]
	if r, ok := decide(&rec[s], rt); ok {
		return r, 0
	}
	sc := scratch.Get(ix.g.N())
	defer scratch.Put(sc)
	visited := sc.Visited()
	visited.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	expanded := 0
	for len(sc.Queue) > 0 {
		v := sc.Queue[len(sc.Queue)-1]
		sc.Queue = sc.Queue[:len(sc.Queue)-1]
		expanded++
		for _, w := range ix.g.Succ(v) {
			if w == t {
				return true, expanded
			}
			if visited.Test(int(w)) {
				continue
			}
			visited.Set(int(w))
			// decide, inlined.
			r := &rec[w]
			if r.post < rt.post || refutes(r, rt) {
				continue // pruned: w cannot reach t
			}
			if r.min <= rt.post {
				return true, expanded
			}
			sc.Queue = append(sc.Queue, w)
		}
	}
	return false, expanded
}

// Stats implements core.Index.
func (ix *Index) Stats() core.Stats { return ix.stats }

// Sizes implements core.Sized: the records need no offset table, so
// Offsets is 0; the filters are Labels and the DFS interval is Aux.
func (ix *Index) Sizes() core.SizeBreakdown {
	n := len(ix.rec)
	return core.SizeBreakdown{Labels: n * (recordSize - 8), Aux: n * 8}
}

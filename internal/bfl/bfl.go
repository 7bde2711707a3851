// Package bfl implements BFL [41] (§3.3): approximate transitive closure
// via Bloom-filter labels, "one of the state-of-the-art techniques for
// plain reachability indexing".
//
// Every vertex v owns one position in each filter's bit space, taken
// from its postorder group, the run of consecutive ids it falls in. The
// two filters partition the ids differently (see groups): Lout, whose
// members are a vertex's descendants, a few runs of ids just below it,
// by 4096 fine groups; Lin, whose members are ancestors scattered over
// the ids above, by 336 coarse ones. Lout(v) is a Bloom filter over
// {bit(w) : w reachable from v}, computed in one reverse-topological
// pass (Lout(v) = own bit ∪ children's filters); Lin is the dual. The
// AP() contra-positive of §3.3 gives the definite negative: if
// Lout(t) ⊄ Lout(s) then Out(t) ⊄ Out(s), so t is not reachable from
// s — no false negatives by construction.
//
// BFL indexes an SCC condensation, whose vertex ids are Tarjan's
// emission order: a DFS postorder, so a reverse topological order. That
// order adds two exact tests. s < t is a definite negative, decided from
// the two ids before any label is read; and t in [Min[s], s], the ids
// that completed inside s's DFS subtree (scc.Condensation.Min), is a
// definite positive. Undecided queries fall back to a DFS pruned by the
// same tests.
//
// All of a vertex's labels live in one 64-byte record, so a probe reads
// one cache line per endpoint and the guided DFS one per vertex it visits.
package bfl

import (
	"math/bits"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/scc"
	"repro/internal/scratch"
)

// Options configures BFL. The filter widths are not options: they are
// what fits beside the interval's low end in one cache line (see record).
type Options struct {
	// Seed rotates the maps from postorder groups to filter bits (see
	// groups), Lout's and Lin's by the same amount. A rotation only
	// renames each filter's bits, so every seed refutes exactly the same
	// pairs; the group counts, and so which vertices share a bit, do not
	// depend on it.
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

// record is everything a probe reads about one vertex v: min, the low
// end of v's Tarjan interval (every id in [min, v] is reachable from v),
// a 256-bit Lout and a 224-bit Lin (in, then in7 for bits 192–223). The
// 256-bit Lout was measured against 192 bits at n=10⁶ (EXPERIMENTS.md
// E23): the wider Lout decides more and probes faster. The vertex id is
// the postorder, so no word holds one and Lin gets 224 bits (E28). v's
// own bit in each filter is its postorder group's, Lout's from fine
// groups and Lin's from coarse ones (see groups): the bit budget stays
// 256 + 224 and only which vertices share a bit differs per filter. A
// query only tests subsets, so it reads records built with any bit map
// alike.
type record struct {
	min, in7 uint32
	out      [4]uint64
	in       [3]uint64
}

// recordSize is 64 bytes: one cache line on amd64 and most arm64 parts.
const recordSize = int(unsafe.Sizeof(record{}))

// Index is the BFL partial index over a condensation's DAG: one
// line-aligned record per vertex.
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

// groups is G_out, the number of postorder groups Lout's bits come
// from, and linGroups is G_in, Lin's: vertex v sets Lout bit
// (v/⌈n/G_out⌉ + rot) mod 256 and Lin bit (v/⌈n/G_in⌉ + rot) mod 224,
// where rot comes from Options.Seed. Ids are Tarjan's postorder, so a
// vertex's descendants are a few runs of consecutive ids just below it:
// a run sets one Lout bit per group it spans (at n = 10⁶, one per 245
// ids), where a mixed hash of the id set one bit per id, and Lout stays
// sparse enough to refute. A vertex's ancestors are no such runs: they
// are scattered over the ids above it, one here and one there. Fine Lin
// groups give nearly every ancestor a bit of its own and fill Lin; wide
// ones (at n = 10⁶, one per 2977 ids) let scattered ancestors share
// bits, so Lin(t) stays sparser and the guided DFS, which tests
// Lin(w) ⊆ Lin(t) at every vertex w it reaches, prunes earlier. The two
// filters are filled by separate sweeps into separate words of the
// record, so each can take its own partition with no change to the
// record or the query.
//
// G_out and G_in are fixed by a 2-D count sweep (EXPERIMENTS.md E31 for
// G_out, E32 for G_in; BenchmarkGroupSweep): guided-DFS expansions per
// uniform pair, one RandomDAG seed per size.
//
//	expansions per uniform pair at G_out = 4096 (G_in = 4096 is the
//	one partition both filters shared before)
//	graph                   G_in=112  224    336    448    1024   4096
//	RandomDAG 10⁴,  m=4n    0.303     0.241  0.213  0.217  0.231  0.259
//	RandomDAG 10⁵,  m=4n    0.290     0.215  0.184  0.191  0.244  0.283
//	RandomDAG 10⁶,  m=4n    0.272     0.194  0.167  0.173  0.235  0.270
//	RandomDAG 10⁵,  m=8n    19.0      14.0   13.6   16.8   26.2   29.8
//	RandomDAG 10⁶,  m=8n    56.5      43.4   49.7   65.8   87.8   94.0
//	LayeredDAG 200×500      120.4     114.8  103.6  107.1  118.2  123.4
//
//	expansions per uniform pair at G_in = 336
//	graph                   G_out=1024  4096   16384
//	RandomDAG 10⁵,  m=4n    0.203       0.184  0.190
//	RandomDAG 10⁶,  m=4n    0.195       0.167  0.162
//
// Rule (E31's, applied to each axis): the count with the fewest
// expansions per uniform pair on RandomDAG m = 4n at 10⁵ and 10⁶, the
// graphs the benchmark serves. G_in = 336 is that count at both sizes
// and at every G_out, and it also expands the fewest per known positive
// there (2.89 and 3.38, against 3.30 and 3.97 at G_in = 4096). G_out
// keeps E31's 4096: at G_in = 336, 16 384 reads 3 % fewer at 10⁶ and
// 3 % more at 10⁵, a tie summed over the two. Coarse Lin decides a
// little less (95.65 % of uniform pairs at 10⁶ against 96.15 %) but each
// pair it leaves costs a shorter DFS. ER, BandedDAG, ScaleFree,
// TreePlus and RandomDAG m = 2n expand the same at every G_in; RandomDAG
// m = 8n at 10⁶ is the one graph whose minimum is elsewhere (G_in =
// 224, 13 % below 336). ScaleFree still falls back more than with a
// hash of the id (E31): its hub-fed descendant sets are no runs, which
// is Lout's partition, not Lin's.
const (
	groups    = 4096
	linGroups = 336
)

// New builds BFL over c's DAG, taking each vertex's interval from c.Min
// and its filter bits from its postorder groups (see groups).
func New(c *scc.Condensation, opts Options) *Index {
	return newWith(c, opts, groupBits(c.DAG.N(), groups, linGroups, opts.Seed))
}

// groupBits maps vertex v of an n-vertex DAG to its Lout and Lin bit
// positions: v's group among outCount (for Lout) and inCount (for Lin)
// consecutive-id groups, rotated by seed.
func groupBits(n, outCount, inCount int, seed int64) func(graph.V) (out, in uint32) {
	outSize := graph.V(max(1, (n+outCount-1)/outCount))
	inSize := graph.V(max(1, (n+inCount-1)/inCount))
	rot := (uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d) >> 32
	return func(v graph.V) (uint32, uint32) {
		return uint32((uint64(v/outSize) + rot) % 256), uint32((uint64(v/inSize) + rot) % 224)
	}
}

// newWith builds BFL over c's DAG with vertex v's own Lout and Lin bits
// at the positions bit(v) returns (Lout's < 256, Lin's < 224).
func newWith(c *scc.Condensation, opts Options, bit func(graph.V) (out, in uint32)) *Index {
	start := time.Now()
	dag := c.DAG
	rec := makeRecords(dag.N())
	end := opts.Spans.Start("bfl/levels")
	buckets := order.LevelBuckets(dag)
	end()
	nw := par.Resolve(opts.Workers)
	// Forward filters, deepest level first: successors' filters are
	// complete before a vertex unions them in.
	end = opts.Spans.StartN("bfl/filters-out", nw)
	// Each vertex's union is built in locals and stored once: the
	// neighbours' records are only read.
	par.Sweep(opts.Workers, order.Reversed(buckets), func(_ int, v graph.V) {
		var out [4]uint64
		pos, _ := bit(v)
		out[pos/64] = 1 << (pos % 64)
		for _, u := range dag.Succ(v) {
			src := &rec[u].out
			out[0] |= src[0]
			out[1] |= src[1]
			out[2] |= src[2]
			out[3] |= src[3]
		}
		rec[v].min, rec[v].out = c.Min[v], out
	})
	end()
	// Backward filters, shallowest level first.
	end = opts.Spans.StartN("bfl/filters-in", nw)
	par.Sweep(opts.Workers, buckets, func(_ int, v graph.V) {
		var in [3]uint64
		var in7 uint32
		if _, pos := bit(v); pos < 192 {
			in[pos/64] = 1 << (pos % 64)
		} else {
			in7 = 1 << (pos - 192)
		}
		for _, u := range dag.Pred(v) {
			src := &rec[u]
			in[0] |= src.in[0]
			in[1] |= src.in[1]
			in[2] |= src.in[2]
			in7 |= src.in7
		}
		rec[v].in, rec[v].in7 = in, in7
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
		s.in[0]&^t.in[0]|s.in[1]&^t.in[1]|s.in[2]&^t.in[2]|uint64(s.in7&^t.in7) != 0
}

// decide is TryReach for t < s, given s's record and t's id and record.
// t in s's Tarjan interval [min(s), s] is a definite positive, read from
// s's line alone; past it, the filters may refute.
func decide(s *record, t graph.V, rt *record) (reach, ok bool) {
	if s.min <= t {
		return true, true
	}
	return false, refutes(s, rt)
}

// TryReach implements core.Partial. Ids are a reverse topological order,
// so s <= t is decided from the ids before any record is read.
func (ix *Index) TryReach(s, t graph.V) (bool, bool) {
	if s <= t {
		return s == t, true
	}
	return decide(&ix.rec[s], t, &ix.rec[t])
}

// Reach answers Qr(s, t) exactly via filter-guided DFS.
func (ix *Index) Reach(s, t graph.V) bool {
	r, _ := ix.search(s, t)
	return r
}

// ReachCounted implements core.ReachCounter: the same guided DFS as
// Reach, additionally reporting how many vertices it expanded and whether
// the index decided the query without any expansion.
func (ix *Index) ReachCounted(s, t graph.V) (bool, int, bool) {
	r, n := ix.search(s, t)
	return r, n, n == 0
}

// ReachBlock implements core.BlockReacher. The block is taken 64 pairs at
// a time. Phase 1 decides what it can of the 64 with the tests TryReach
// makes — the id cut, then s's interval, then the filters — written out
// in one loop with no call between pairs, so the record loads of
// different pairs are independent and their misses overlap; each pair
// it leaves undecided sets its bit in one word. Phase 2 runs search, the
// guided DFS ReachCounted runs, for each set bit. A pair in phase 2 is
// one ReachCounted would have counted as a fallback, and search's
// expansion count is what ReachCounted reports for it.
func (ix *Index) ReachBlock(ps []core.Pair, out []bool) (fallback, visited int) {
	rec := ix.rec
	for lo := 0; lo < len(ps); lo += 64 {
		blk := ps[lo:min(lo+64, len(ps))]
		res := out[lo : lo+len(blk)]
		var undecided uint64
		for i, p := range blk {
			s, t := p.S, p.T
			if s <= t {
				res[i] = s == t
				continue
			}
			rs := &rec[s]
			if rs.min <= t {
				res[i] = true
				continue
			}
			if refutes(rs, &rec[t]) {
				res[i] = false
				continue
			}
			undecided |= 1 << i
		}
		for ; undecided != 0; undecided &= undecided - 1 {
			i := bits.TrailingZeros64(undecided)
			r, n := ix.search(blk[i].S, blk[i].T)
			res[i] = r
			fallback++
			visited += n
		}
	}
	return fallback, visited
}

// search is core.CountingGuidedDFS with TryReach as the filter,
// specialised: t's record is loaded once, the per-visit test is TryReach
// written out in the loop rather than a call through a func value, and
// the adjacency is the concrete CSR. A successor w < t is pruned by its
// id before the visited set or its record is touched; since TryReach
// prunes it too, whatever the visited set says, it expands and counts
// exactly what the generic loop does.
func (ix *Index) search(s, t graph.V) (bool, int) {
	if s <= t {
		return s == t, 0
	}
	rec, rt := ix.rec, &ix.rec[t]
	if r, ok := decide(&rec[s], t, rt); ok {
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
			if w <= t {
				if w == t {
					return true, expanded
				}
				continue // pruned by id: w cannot reach t
			}
			if visited.Test(int(w)) {
				continue
			}
			visited.Set(int(w))
			// decide, inlined.
			r := &rec[w]
			if r.min <= t {
				return true, expanded
			}
			if refutes(r, rt) {
				continue // pruned: w cannot reach t
			}
			sc.Queue = append(sc.Queue, w)
		}
	}
	return false, expanded
}

// Stats implements core.Index.
func (ix *Index) Stats() core.Stats { return ix.stats }

// Sizes implements core.Sized: the records need no offset table, so
// Offsets is 0; the filters are Labels and the interval's low end is Aux.
func (ix *Index) Sizes() core.SizeBreakdown {
	n := len(ix.rec)
	return core.SizeBreakdown{Labels: n * (recordSize - 4), Aux: n * 4}
}

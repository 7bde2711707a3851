// Package scratch provides the pooled per-query traversal arena: a
// visited set (two for bidirectional searches) plus reusable vertex
// queues. Before this pool every online traversal and every partial
// index's guided-DFS fallback allocated a fresh bitset.New(g.N()) and
// queue per query — on large graphs that allocation dominated
// negative-query latency and generated garbage proportional to query
// volume. With the pool, steady-state queries allocate nothing, and a
// query pays for the vertices it touched, not for the graph: the visited
// set logs the words a query makes non-zero and Get zeroes those alone
// (see Visited for the rule), and the queues keep their grown capacity.
//
// Usage:
//
//	sc := scratch.Get(g.N())
//	defer scratch.Put(sc)
//	visited := sc.Visited()         // empty, holds bits [0, n)
//	sc.Queue = append(sc.Queue, s)  // operate on the fields directly so
//	                                // growth survives into the pool
//
// Arenas are handed out by a sync.Pool, so concurrent queries (BatchReach
// workers) each get their own; nested use inside one query (an overlay
// read probing the index while it holds its own arena) is safe.
package scratch

import (
	"sync"

	"repro/internal/graph"
)

const wordBits = 64

// denseShare decides how Get empties a visited set: word by word from the
// log while the log holds at most 1/denseShare of the set's words, one
// memclr of the whole set beyond that. Measured on the reference box
// (BenchmarkReset: 10⁶-bit set of 15625 words, touched words scattered,
// ns per set-then-empty cycle, log vs memclr): 4 words 11 vs 2460, 64
// words 145 vs 2470, 1/16 of the words 2530 vs 4170, 1/8 5750 vs 5830,
// 1/4 11500 vs 9000, all of them 47100 vs 28400 — the two cross at 1/8.
const denseShare = 8

// Visited is the arena's visited set: dense words, like bitset.Set, plus
// a log of the words the current query made non-zero. Every word outside
// the log is zero, over the whole backing array, so emptying the set
// means zeroing the logged words — a guided DFS that expands four
// vertices on a million-vertex graph resets a handful of words, not
// 125 KB. Bits at or beyond the size asked of Get are out of range.
type Visited struct {
	words []uint64
	dirty []uint32 // indexes of the non-zero words
}

// Set sets bit i.
func (v *Visited) Set(i int) {
	w := uint(i) / wordBits
	old := v.words[w]
	v.words[w] = old | 1<<(uint(i)%wordBits)
	if old == 0 {
		v.dirty = append(v.dirty, uint32(w))
	}
}

// Test reports whether bit i is set.
func (v *Visited) Test(i int) bool {
	return v.words[uint(i)/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// reset empties v, sizes it for bits [0, n) and returns how many words it
// zeroed.
func (v *Visited) reset(n int) int {
	zeroed := len(v.dirty)
	if zeroed*denseShare <= len(v.words) {
		for _, w := range v.dirty {
			v.words[w] = 0
		}
	} else {
		zeroed = len(v.words)
		clear(v.words)
	}
	v.dirty = v.dirty[:0]
	if nw := (n + wordBits - 1) / wordBits; nw <= cap(v.words) {
		v.words = v.words[:nw]
	} else {
		v.words = make([]uint64, nw)
	}
	return zeroed
}

// T is one query's traversal arena.
type T struct {
	visited, visited2 Visited
	words             []uint64
	zeroed            int // visited-set words Get and Visited2 zeroed, in total

	// Queue doubles as BFS queue and DFS stack. Queue2 and Aux serve
	// bidirectional searches (second frontier, next-frontier build
	// buffer). Callers append/truncate the fields in place.
	Queue  []graph.V
	Queue2 []graph.V
	Aux    []graph.V
}

var pool = sync.Pool{New: func() any { return new(T) }}

// Get returns an arena whose primary visited set is empty with room for
// bits [0, n) and whose queues are empty (capacity kept).
func Get(n int) *T {
	s := pool.Get().(*T)
	s.zeroed += s.visited.reset(n)
	s.Queue = s.Queue[:0]
	s.Queue2 = s.Queue2[:0]
	s.Aux = s.Aux[:0]
	return s
}

// Put returns the arena to the pool. The caller must not retain any
// reference into the arena (the visited sets or queue backing arrays)
// after Put.
func Put(s *T) { pool.Put(s) }

// Visited returns the primary visited set, already emptied by Get.
func (s *T) Visited() *Visited { return &s.visited }

// Visited2 returns the secondary visited set, empty with room for bits
// [0, n) — the backward frontier of bidirectional searches. It is emptied
// here rather than in Get so unidirectional queries never look at it.
func (s *T) Visited2(n int) *Visited {
	s.zeroed += s.visited2.reset(n)
	return &s.visited2
}

// Words returns the arena's per-vertex word array (one uint64 per
// vertex), zeroed, of length n — the reach-mask storage of the
// bit-parallel multi-source kernel (traversal.MultiSourceReach). A sweep
// writes most of it, so it is cleared whole; like the visited sets it
// reuses its grown backing and must not be retained past Put.
func (s *T) Words(n int) []uint64 {
	if cap(s.words) < n {
		s.words = make([]uint64, n)
	} else {
		s.words = s.words[:n]
		clear(s.words)
	}
	return s.words
}

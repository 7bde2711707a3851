// Package grail implements GRAIL [50] (§3.1): a partial tree-cover index
// recording exactly k intervals per vertex, one from each of k random DFS
// spanning forests. Interval containment in every labeling is a necessary
// condition for reachability, so a failed containment is a definite
// negative (no false negatives in the pruning direction), while
// containment in all k labelings may be a false positive — resolved by
// index-guided DFS. Building time and index size are O(k·(n+m)), which is
// what made GRAIL "one of the first methods feasible for large graphs".
package grail

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/par"
)

// Options configures GRAIL.
type Options struct {
	// K is the number of random interval labelings (the paper's k); the
	// GRAIL paper uses 2–5. Default 3.
	K int
	// Seed drives the random spanning forests.
	Seed int64
	// Workers caps the pool building the K independent labelings
	// (0 = GOMAXPROCS, 1 = serial). Labeling i derives its own RNG from
	// par.SubSeed(Seed, i), so for a fixed Seed the index is identical
	// at any worker count.
	Workers int
}

func (o *Options) defaults() {
	if o.K <= 0 {
		o.K = 3
	}
}

// Index is the GRAIL partial index over a DAG.
type Index struct {
	g *graph.Digraph
	k int
	// mins[i*n+v], posts[i*n+v]: labeling i's interval of v.
	mins  []uint32
	posts []uint32
	stats core.Stats
}

// New builds GRAIL over a DAG.
func New(dag *graph.Digraph, opts Options) *Index {
	opts.defaults()
	start := time.Now()
	n := dag.N()
	ix := &Index{g: dag, k: opts.K,
		mins:  make([]uint32, opts.K*n),
		posts: make([]uint32, opts.K*n),
	}
	topo, _ := order.Topological(dag)
	// The K labelings are independent — the embarrassingly parallel phase.
	// Each writes only its own slice of mins/posts and owns an RNG seeded
	// by (Seed, i), so the fan-out is deterministic at any worker count.
	par.Do(opts.Workers, opts.K, func(i int) {
		// Random root order and random child order give labelings with
		// independent false-positive sets.
		rng := rand.New(rand.NewSource(par.SubSeed(opts.Seed, i)))
		roots := order.Random(n, rng)
		po := order.DFSForest(dag, roots, rng)
		post := ix.posts[i*n : (i+1)*n]
		low := ix.mins[i*n : (i+1)*n]
		copy(post, po.Post)
		// GRAIL's label of v is [low(v), post(v)] with low(v) the minimum
		// post number over everything reachable from v — computed along
		// ALL edges (non-tree included) in reverse topological order, so
		// the interval of v contains the interval of every vertex v
		// reaches (no false negatives).
		copy(low, po.Post)
		for j := len(topo) - 1; j >= 0; j-- {
			v := topo[j]
			for _, w := range dag.Succ(v) {
				if low[w] < low[v] {
					low[v] = low[w]
				}
			}
		}
	})
	ix.stats = core.Stats{
		Entries:   opts.K * n,
		Bytes:     opts.K * n * 8,
		BuildTime: time.Since(start),
	}
	return ix
}

// Name implements core.Index.
func (ix *Index) Name() string { return "GRAIL" }

// Labels returns the K labelings' interval ends: labeling i's interval of
// v is [mins[i*n+v], posts[i*n+v]]. The slices are the index's own and
// must not be modified.
func (ix *Index) Labels() (mins, posts []uint32) { return ix.mins, ix.posts }

// contains reports whether labeling i's interval of s contains t's post.
func (ix *Index) contains(i int, s, t graph.V) bool {
	n := ix.g.N()
	off := i * n
	return ix.mins[off+int(s)] <= ix.posts[off+int(t)] &&
		ix.posts[off+int(t)] <= ix.posts[off+int(s)]
}

// TryReach implements core.Partial: a definite negative when any labeling
// excludes t from s's subtree interval; otherwise undecided.
func (ix *Index) TryReach(s, t graph.V) (bool, bool) {
	if s == t {
		return true, true
	}
	for i := 0; i < ix.k; i++ {
		if !ix.contains(i, s, t) {
			return false, true
		}
	}
	return false, false
}

// Reach answers Qr(s, t) exactly: index pruning plus guided DFS.
func (ix *Index) Reach(s, t graph.V) bool {
	return core.GuidedDFS(ix.g, s, t, ix.TryReach)
}

// ReachCounted implements core.ReachCounter: the same guided DFS as
// Reach, additionally reporting how many vertices it expanded and whether
// the index labels decided the query without any expansion.
func (ix *Index) ReachCounted(s, t graph.V) (bool, int, bool) {
	r, n := core.CountingGuidedDFS(ix.g, s, t, ix.TryReach)
	return r, n, n == 0
}

// Stats implements core.Index.
func (ix *Index) Stats() core.Stats { return ix.stats }

// Package dbl implements DBL [29] (§3.2): a partial dynamic index for
// insertion-only graphs that combines two complementary label families,
// exactly as in the published design:
//
//   - DL (dynamic landmark label): k landmark vertices; every vertex keeps
//     two k-bit sets — the landmarks it reaches and the landmarks that
//     reach it. A non-empty intersection of s's forward bits with t's
//     backward bits proves s → landmark → t (definite positive).
//   - BL (bidirectional Bloom label): hash-based filters over the full
//     reachable/reaching sets (as in BFL). A subset violation is a
//     definite negative.
//
// Both label families are monotone under edge insertion, so InsertEdge
// just propagates unions to a fixpoint; deletions are not supported (the
// defining restriction of DBL — DeleteEdge returns core.Unsupported).
// Undecided queries run the label-guided DFS.
package dbl

import (
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/scc"
)

// Options configures DBL.
type Options struct {
	// K is the number of landmarks (bits in the DL label). Default 64.
	K int
	// Bits is the Bloom label width. Default 128.
	Bits int
	// Seed scrambles the Bloom hash.
	Seed int64
	// Workers caps the pool for the per-landmark BFS pairs and the
	// Bloom-label sweeps (0 = GOMAXPROCS, 1 = serial). Landmark
	// traversals are independent and their bit merges happen serially in
	// landmark order, so the index is identical at any worker count.
	Workers int
}

func (o *Options) defaults() {
	if o.K <= 0 {
		o.K = 64
	}
	if o.K > 64 {
		o.K = 64
	}
	if o.Bits <= 0 {
		o.Bits = 128
	}
	o.Bits = (o.Bits + 63) &^ 63
}

// Index is the DBL partial index over a general digraph.
type Index struct {
	g           *core.DynGraph
	k           int
	words       int
	dlOut, dlIn []uint64 // landmark bit sets
	blOut, blIn []uint64 // n*words Bloom filters
	seed        uint64
	stats       core.Stats
}

// New builds DBL over g (general digraph; the build uses the condensation
// internally, labels live on original vertices).
func New(g *graph.Digraph, opts Options) *Index {
	opts.defaults()
	start := time.Now()
	n := g.N()
	width := opts.Bits / 64
	ix := &Index{
		g: core.NewDynGraph(g), k: opts.K, words: width,
		dlOut: make([]uint64, n), dlIn: make([]uint64, n),
		blOut: make([]uint64, n*width), blIn: make([]uint64, n*width),
		seed: uint64(opts.Seed)*0x9e3779b97f4a7c15 + 0x94d049bb133111eb,
	}

	// Landmarks: top-k by degree.
	lms := order.ByDegreeDesc(g)
	if len(lms) > ix.k {
		lms = lms[:ix.k]
	}
	// DL labels by one BFS pair per landmark. The traversals fan out in
	// parallel; the bit merges stay serial (per-landmark results land in
	// indexed slots first) because landmarks share label words.
	fwd := make([][]graph.V, len(lms))
	bwd := make([][]graph.V, len(lms))
	par.Do(opts.Workers, len(lms), func(i int) {
		fwd[i] = bfs(g, lms[i], true)
		bwd[i] = bfs(g, lms[i], false)
	})
	for bit := range lms {
		for _, v := range fwd[bit] {
			ix.dlIn[v] |= 1 << uint(bit) // landmark reaches v
		}
		for _, v := range bwd[bit] {
			ix.dlOut[v] |= 1 << uint(bit) // v reaches landmark
		}
	}

	// BL labels on the condensation (all vertices of an SCC share filters).
	cond := scc.Condense(g, opts.Workers)
	dag := cond.DAG
	nc := dag.N()
	w := ix.words
	cOut := make([]uint64, nc*w)
	cIn := make([]uint64, nc*w)
	// Seed component filters with the hashes of their member vertices.
	for v := 0; v < n; v++ {
		c := int(cond.Comp[v])
		word, bit := ix.hash(graph.V(v))
		cOut[c*w+word] |= bit
		cIn[c*w+word] |= bit
	}
	buckets := order.LevelBuckets(dag)
	par.Sweep(opts.Workers, order.Reversed(buckets), func(_ int, cv graph.V) {
		v := int(cv)
		for _, u := range dag.Succ(cv) {
			for j := 0; j < w; j++ {
				cOut[v*w+j] |= cOut[int(u)*w+j]
			}
		}
	})
	par.Sweep(opts.Workers, buckets, func(_ int, cv graph.V) {
		v := int(cv)
		for _, u := range dag.Pred(cv) {
			for j := 0; j < w; j++ {
				cIn[v*w+j] |= cIn[int(u)*w+j]
			}
		}
	})
	for v := 0; v < n; v++ {
		c := int(cond.Comp[v])
		copy(ix.blOut[v*w:(v+1)*w], cOut[c*w:(c+1)*w])
		copy(ix.blIn[v*w:(v+1)*w], cIn[c*w:(c+1)*w])
	}
	ix.stats = core.Stats{
		Entries:   4 * n,
		Bytes:     2*n*8 + 2*n*w*8,
		BuildTime: time.Since(start),
	}
	return ix
}

func bfs(g *graph.Digraph, s graph.V, forward bool) []graph.V {
	visited := make([]bool, g.N())
	visited[s] = true
	out := []graph.V{s}
	for qi := 0; qi < len(out); qi++ {
		v := out[qi]
		var next []graph.V
		if forward {
			next = g.Succ(v)
		} else {
			next = g.Pred(v)
		}
		for _, w := range next {
			if !visited[w] {
				visited[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

func (ix *Index) hash(v graph.V) (int, uint64) {
	x := (uint64(v) + 1) * ix.seed
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	pos := x % uint64(ix.words*64)
	return int(pos / 64), 1 << (pos % 64)
}

// Name implements core.Index.
func (ix *Index) Name() string { return "DBL" }

// TryReach implements core.Partial.
func (ix *Index) TryReach(s, t graph.V) (bool, bool) {
	if s == t {
		return true, true
	}
	// DL positive: a common landmark.
	if ix.dlOut[s]&ix.dlIn[t] != 0 {
		return true, true
	}
	// BL negatives: subset violations.
	w := ix.words
	for j := 0; j < w; j++ {
		if ix.blOut[int(t)*w+j]&^ix.blOut[int(s)*w+j] != 0 {
			return false, true
		}
	}
	for j := 0; j < w; j++ {
		if ix.blIn[int(s)*w+j]&^ix.blIn[int(t)*w+j] != 0 {
			return false, true
		}
	}
	return false, false
}

// Reach answers Qr(s, t) exactly via label-guided DFS.
func (ix *Index) Reach(s, t graph.V) bool {
	return core.GuidedDFS(ix.g, s, t, ix.TryReach)
}

// Stats implements core.Index.
func (ix *Index) Stats() core.Stats { return ix.stats }

// InsertEdge adds (u, v) and propagates the monotone label unions.
func (ix *Index) InsertEdge(u, v graph.V) error {
	if !ix.g.Insert(u, v) {
		return nil
	}
	// Backward propagation of forward labels (dlOut, blOut).
	queue := []graph.V{u}
	if ix.mergeOut(u, v) {
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, p := range ix.g.Pred(x) {
				if ix.mergeOut(p, x) {
					queue = append(queue, p)
				}
			}
		}
	}
	// Forward propagation of backward labels (dlIn, blIn).
	queue = append(queue[:0], v)
	if ix.mergeIn(v, u) {
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, s := range ix.g.Succ(x) {
				if ix.mergeIn(s, x) {
					queue = append(queue, s)
				}
			}
		}
	}
	return nil
}

func (ix *Index) mergeOut(dst, src graph.V) bool {
	changed := false
	if nv := ix.dlOut[dst] | ix.dlOut[src]; nv != ix.dlOut[dst] {
		ix.dlOut[dst] = nv
		changed = true
	}
	w := ix.words
	for j := 0; j < w; j++ {
		if nv := ix.blOut[int(dst)*w+j] | ix.blOut[int(src)*w+j]; nv != ix.blOut[int(dst)*w+j] {
			ix.blOut[int(dst)*w+j] = nv
			changed = true
		}
	}
	return changed
}

func (ix *Index) mergeIn(dst, src graph.V) bool {
	changed := false
	if nv := ix.dlIn[dst] | ix.dlIn[src]; nv != ix.dlIn[dst] {
		ix.dlIn[dst] = nv
		changed = true
	}
	w := ix.words
	for j := 0; j < w; j++ {
		if nv := ix.blIn[int(dst)*w+j] | ix.blIn[int(src)*w+j]; nv != ix.blIn[int(dst)*w+j] {
			ix.blIn[int(dst)*w+j] = nv
			changed = true
		}
	}
	return changed
}

// DeleteEdge is not supported: DBL is insertion-only by design.
func (ix *Index) DeleteEdge(u, v graph.V) error {
	return &core.Unsupported{Op: "DeleteEdge", Index: "DBL"}
}

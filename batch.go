package reach

import (
	"context"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/scratch"
	"repro/internal/traversal"
)

// Pair is one (source, target) query of a batch.
type Pair = core.Pair

// BatchReach evaluates many plain reachability queries over a shared
// index: the "many" form is the same index probed many times, not a second
// engine. Indexes in this library are safe for concurrent readers once
// built (they are immutable after construction; dynamic indexes must not
// be updated while a batch runs). g must be the graph ix was built over —
// it bounds the vertex validation; every pair is checked before any query
// runs, so an out-of-range pair yields ErrVertexRange with no partial
// work. workers <= 0 selects GOMAXPROCS.
//
// The pairs are answered by core.BatchReach: an index with a batch form
// of its own is handed the whole batch — BFL, lifted through the SCC
// condensation, answers it in blocks of 64 pairs (it decides a whole
// block from its records before it runs a guided traversal for the pairs
// left undecided) and the instrumented wrapper counts each block once;
// the sharded engine scatter-gathers per shard — and any other index is
// probed once per pair. Either way the work is spread over a
// work-stealing pool of workers, batches under 512 pairs inline. This is
// the §5 parallel-computation direction applied to the query side —
// throughput workloads (the "many negative queries" regime) are
// embarrassingly parallel. A panic inside the index on any worker stops
// the batch and surfaces as ErrIndexPanic.
//
// A nil index selects the index-free bit-parallel kernel: the batch is
// cut into blocks of 64 pairs and each block is answered by ONE
// multi-source BFS sweep (traversal.MultiSourceReach) in which every pair
// owns one bit of a per-vertex frontier word — ~len(pairs)/64 graph sweeps
// instead of len(pairs) separate searches, exact on general graphs. It is
// the right tool when no index has been built (ad-hoc analytics,
// validating a build; the exact-TC builder uses the same sweep), and only
// then: a built index answers a pair faster than any sweep amortizes, so
// DB.BatchReachCtx and /v1/batch never come here.
func BatchReach(ix Index, g *Graph, pairs []Pair, workers int) (out []bool, err error) {
	defer core.Recover(&err)
	return batchReach(nil, ix, g, pairs, workers)
}

// batchReach is BatchReach under a context and without the panic
// boundary, for callers that bring their own (DB.BatchReachCtx counts the
// fault): workers poll ctx between runs of pairs (a block, a grain of
// per-pair queries, or one 64-pair sweep on the nil-index path) and the
// batch returns ctx.Err() with no partial results when the context is
// canceled or past its deadline. A nil ctx never cancels.
func batchReach(ctx context.Context, ix Index, g *Graph, pairs []Pair, workers int) ([]bool, error) {
	n := g.N()
	for _, p := range pairs {
		if err := core.CheckPair(n, p.S, p.T); err != nil {
			return nil, err
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if workers < 0 {
		workers = 0 // documented contract: <= 0 selects GOMAXPROCS
	}
	out := make([]bool, len(pairs))
	var err error
	if ix != nil {
		err = core.BatchReach(ctx, ix, pairs, out, workers)
	} else {
		err = batchKernel(ctx, g, pairs, out, workers)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// batchKernel is the nil-index path of BatchReach: one 64-way multi-source
// BFS sweep per block of 64 pairs, blocks spread over the pool.
func batchKernel(ctx context.Context, g *Graph, pairs []Pair, out []bool, workers int) error {
	blocks := (len(pairs) + traversal.WordSources - 1) / traversal.WordSources
	par.Do(workers, blocks, func(b int) {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		lo := b * traversal.WordSources
		hi := min(lo+traversal.WordSources, len(pairs))
		sc := scratch.Get(0)
		defer scratch.Put(sc)
		words := sc.Words(g.N())
		srcs := sc.Aux[:0]
		for i := lo; i < hi; i++ {
			srcs = append(srcs, pairs[i].S)
		}
		sc.Aux = srcs
		traversal.MultiSourceReach(g, srcs, words)
		for i := lo; i < hi; i++ {
			out[i] = words[pairs[i].T]&(1<<uint(i-lo)) != 0
		}
	})
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

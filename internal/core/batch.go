package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/par"
)

// Pair is one (source, target) query of a batch.
type Pair struct {
	S, T graph.V
}

// BatchIndex is implemented by indexes whose batch form is more than one
// Reach per pair: the sharded engine buckets a batch by answering shard,
// the instrumented wrapper counts the batch. BatchReach (the function)
// prefers it, so to every caller a batch is the same index probed many
// times, whatever the index is.
//
// pairs are already range-checked, out has len(pairs) slots, a nil ctx
// never cancels and workers <= 0 selects GOMAXPROCS. A canceled batch
// returns ctx.Err() and leaves out unspecified.
type BatchIndex interface {
	Index
	BatchReach(ctx context.Context, pairs []Pair, out []bool, workers int) error
}

// BatchGrain is the number of queries a batch worker claims per steal.
// Small enough that one expensive run of queries (deep guided-DFS
// fallbacks cluster in adversarial orderings) cannot strand a worker with
// a long private chunk, large enough to amortize the atomic claim.
const BatchGrain = 16

// batchInline is the batch size below which the pairs are answered on the
// calling goroutine. Starting a pool and waking another CPU for it costs
// microseconds — tens of them on a virtualized host — while a probe costs
// a few hundred nanoseconds: measured on the 100k-vertex DAG of the
// batch-http workload with BFL (2 vCPUs, fresh pairs every call), 128 pairs
// take 29 µs inline and 47 µs through the pool, 256 pairs 62 µs either
// way, and only from there up does the pool stop losing.
const batchInline = 16 * BatchGrain

// BatchReach answers pairs into out through ix — by ix's own batch form
// when it has one, otherwise by one ix.Reach per pair on a work-stealing
// pool. Workers claim grain-sized runs of the batch from a shared counter
// rather than pre-assigned static chunks, so a cluster of expensive
// queries (negative queries that exhaust a guided fallback) cannot leave
// the other workers idle while one drains its chunk. They poll ctx between
// claims. A panic inside the index on any worker stops the batch and is
// re-raised on the calling goroutine (see par.WorkerPanic).
func BatchReach(ctx context.Context, ix Index, pairs []Pair, out []bool, workers int) error {
	if bx, ok := ix.(BatchIndex); ok {
		return bx.BatchReach(ctx, pairs, out, workers)
	}
	return BatchEach(ctx, ix, pairs, out, workers)
}

// BatchEach is the per-pair form of BatchReach, for a BatchIndex whose own
// batch form only adds to it (the instrumented wrapper's count, the
// overlay adapter's).
func BatchEach(ctx context.Context, ix Index, pairs []Pair, out []bool, workers int) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if len(pairs) < batchInline {
		workers = 1
	}
	par.DoGrain(workers, len(pairs), BatchGrain, func(_, lo, hi int) {
		select {
		case <-done:
			return
		default:
		}
		for i := lo; i < hi; i++ {
			out[i] = ix.Reach(pairs[i].S, pairs[i].T)
		}
	})
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

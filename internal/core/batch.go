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
// Reach per pair: the condensation adapter answers a batch block by block
// when its inner index is a BlockReacher, the instrumented wrapper counts
// each block once, the sharded engine buckets a batch by answering shard.
// BatchReach (the function) prefers it, so to every caller a batch is the
// same index probed many times, whatever the index is, with the same
// answers and the same counter totals.
//
// pairs are already range-checked, out has len(pairs) slots, a nil ctx
// never cancels and workers <= 0 selects GOMAXPROCS. A canceled batch
// returns ctx.Err() and leaves out unspecified.
type BatchIndex interface {
	Index
	BatchReach(ctx context.Context, pairs []Pair, out []bool, workers int) error
}

// BlockReacher is implemented by DAG indexes with a two-phase block form
// (BFL): ReachBlock answers every pair of ps, in the index's own vertex
// ids, into out. It first decides all the pairs it can from its labels,
// with no call between pairs, so the record loads of different pairs
// overlap; only then does it run a guided traversal for each pair left
// undecided. fallback and visited are what the same pairs would have
// summed through ReachCounted: the pairs that needed a traversal, and the
// vertices those traversals expanded.
type BlockReacher interface {
	ReachBlock(ps []Pair, out []bool) (fallback, visited int)
}

// BatchBlock is the number of pairs the condensation adapter answers as
// one block, and so the unit of the instrumented wrapper's tallies and of
// a pooled batch's work claims. Blocks of 32 to 256 pairs answer
// 1024-pair BFL batches at the same rate within noise (EXPERIMENTS.md
// E29); 64 is one BFL chunk (one word of undecided pairs).
const BatchBlock = 64

// BatchGrain is the number of queries a per-pair batch worker (BatchEach)
// claims per steal. Small enough that one expensive run of queries (deep
// guided-DFS fallbacks cluster in adversarial orderings) cannot strand a
// worker with a long private chunk, large enough to amortize the atomic
// claim.
const BatchGrain = 16

// BatchInline is the batch size below which the pairs are answered on the
// calling goroutine. Starting a pool and waking another CPU for it costs
// microseconds — tens of them on a virtualized host — against a few
// hundred nanoseconds per pair through the block form: measured on the
// 100k-vertex DAG of the batch-http workload with instrumented BFL (2
// vCPUs, fresh pairs every call), the pool takes 1.49× the inline time at
// 128 pairs, 1.15× at 384, 0.97× at 512 and 0.80× at 768 (E29). A served
// batch never reaches the pool: DB.BatchReachCtx answers on the request's
// goroutine and takes its parallelism from concurrent requests.
const BatchInline = 512

// BatchReach answers pairs into out through ix — by ix's own batch form
// when it has one, otherwise by one ix.Reach per pair (BatchEach). Either
// way the work is split into runs, claimed from a shared counter by a
// work-stealing pool from BatchInline pairs up, so a cluster of expensive
// queries (negative queries that exhaust a guided fallback) cannot leave
// the other workers idle, and ctx is polled before every run. A panic
// inside the index on any worker stops the batch and is re-raised on the
// calling goroutine (see par.WorkerPanic).
func BatchReach(ctx context.Context, ix Index, pairs []Pair, out []bool, workers int) error {
	if bx, ok := ix.(BatchIndex); ok {
		return bx.BatchReach(ctx, pairs, out, workers)
	}
	return BatchEach(ctx, ix, pairs, out, workers)
}

// BatchEach is the per-pair form of BatchReach, for an index without a
// batch form and for a BatchIndex whose own batch form only adds to it
// (the overlay adapter's count).
func BatchEach(ctx context.Context, ix Index, pairs []Pair, out []bool, workers int) error {
	return eachRun(ctx, len(pairs), BatchGrain, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = ix.Reach(pairs[i].S, pairs[i].T)
		}
	})
}

// eachRun calls f on [0, n) cut into runs of at most size, polling ctx
// before each run: inline below BatchInline, otherwise on a pool of
// workers that claim one run at a time.
func eachRun(ctx context.Context, n, size, workers int, f func(lo, hi int)) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if n < BatchInline {
		workers = 1
	}
	par.DoGrain(workers, n, size, func(_, lo, hi int) {
		for ; lo < hi; lo += size {
			select {
			case <-done:
				return
			default:
			}
			f(lo, min(lo+size, hi))
		}
	})
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

package reach

// This file is the fourth layer of the live-mutation subsystem (the
// batcher, WAL, and overlay live in internal/mutate): the engine that
// binds them to a DB, and the background reindexer that folds the delta
// back into a frozen index. Both are producers of the DB's serving
// snapshot (serving.go): group commit publishes the same graph and index
// under a grown overlay, the reindexer a new graph and index under the
// rebased one. A rebuild failure (panic, cancellation, anything) leaves
// the old snapshot serving: availability degrades to "overlay keeps
// growing", never to wrong or missing answers.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/par"
)

// FsyncMode re-exports the WAL durability policy.
type FsyncMode = mutate.FsyncMode

// WAL fsync policies (see MutationConfig.Fsync).
const (
	// FsyncAlways fsyncs once per group commit before acknowledging it:
	// acknowledged writes survive power loss. The default.
	FsyncAlways = mutate.FsyncAlways
	// FsyncNever leaves flushing to the OS: acknowledged writes survive
	// a process crash but not power loss. DB.Flush still forces a sync.
	FsyncNever = mutate.FsyncNever
)

// MutationConfig enables live mutation on a DB (DBConfig.Mutation).
// Mutation is supported on unlabeled graphs with a fixed vertex universe:
// edges come and go, vertices do not.
type MutationConfig struct {
	// WALPath is the write-ahead log file. Required. An existing WAL is
	// replayed on start (acknowledged mutations survive restarts); a torn
	// tail from a crash mid-commit is truncated, a file that is not a WAL
	// fails NewDB rather than being overwritten.
	WALPath string
	// Fsync selects the durability policy. Default FsyncAlways.
	Fsync FsyncMode
	// BatchOps caps ops per group commit. Default 128. A commit starts the
	// moment the previous one ends and carries whatever queued meanwhile.
	BatchOps int
	// RebuildThreshold is the overlay size (added+removed edges) that
	// triggers a background reindex folding the delta into a fresh frozen
	// index. 0 selects 4096; negative disables background rebuilds (the
	// overlay grows without bound — tests use this to pin the overlay).
	RebuildThreshold int
	// RebuildRetries is how many times a failed rebuild is retried (with
	// exponential backoff from rebuildBackoff) before the engine gives up
	// until the next commit re-triggers it. 0 selects 3; negative means no
	// retries.
	RebuildRetries int
}

// rebuildBackoff is the base retry backoff of a failed rebuild, doubling
// per attempt.
const rebuildBackoff = 50 * time.Millisecond

// EdgeOp is one edge mutation submitted through DB.Mutate.
type EdgeOp struct {
	Remove   bool
	From, To V
}

// mutDB is the mutation engine hanging off a DB.
type mutDB struct {
	db   *DB     // the serving snapshot this engine publishes to
	opts Options // rebuild options: Spans stripped, Prepared replaced per rebuild

	m *obs.MutationMetrics // always allocated; exported only when DB metrics are on

	wal *mutate.Log
	bat *mutate.Batcher

	threshold int // overlay size triggering a rebuild; 0 = disabled
	retries   int

	rebuilding atomic.Bool
	closed     atomic.Bool
	ctx        context.Context // rebuild lifetime; canceled by Close
	cancel     context.CancelFunc
	wg         sync.WaitGroup

	replayed      int
	recoveredTail string

	// testHookPreSwap runs between a rebuild's index construction and its
	// publish, so tests can race mutations into exactly that window.
	testHookPreSwap func()
}

// checkMutationConfig validates DBConfig.Mutation against the rest of
// the configuration before any index is built.
func checkMutationConfig(g *Graph, cfg DBConfig) error {
	mc := cfg.Mutation
	if mc == nil {
		return nil
	}
	switch {
	case mc.WALPath == "":
		return fmt.Errorf("%w: Mutation.WALPath is required", ErrBadOptions)
	case g.Labeled():
		return fmt.Errorf("%w: Mutation supports unlabeled graphs only", ErrBadOptions)
	case mc.Fsync != FsyncAlways && mc.Fsync != FsyncNever:
		return fmt.Errorf("%w: unknown Fsync mode %v", ErrBadOptions, mc.Fsync)
	}
	return nil
}

// orDefault resolves a MutationConfig count: 0 selects def, a negative
// value disables (0).
func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return max(v, 0)
}

// initMutation opens and replays the WAL and starts the mutation engine.
// Called at the end of NewDBCtx, after the plain index is built and
// published. Replayed mutations go into the overlay — the index on disk
// or freshly built reflects the base graph, the WAL carries what happened
// since.
func (db *DB) initMutation(cfg DBConfig) error {
	mc := cfg.Mutation
	wal, rec, err := mutate.Open(mc.WALPath, mc.Fsync)
	if err != nil {
		return err
	}
	n := uint32(db.g.N())
	var replay []mutate.Op
	for _, b := range rec.Batches {
		for _, op := range b.Ops {
			if op.From >= n || op.To >= n {
				wal.Close()
				return fmt.Errorf("%w: WAL %s references vertex %d but the graph has %d vertices (WAL/graph mismatch)",
					ErrBadOptions, mc.WALPath, max(op.From, op.To), n)
			}
		}
		replay = append(replay, b.Ops...)
	}
	opts := cfg.Options
	opts.Spans = nil    // rebuild phases must not append to the DB's build timeline
	opts.Prepared = nil // each rebuild prepares its own graph
	ctx, cancel := context.WithCancel(context.Background())
	mdb := &mutDB{
		db:        db,
		opts:      opts,
		m:         &obs.MutationMetrics{},
		wal:       wal,
		threshold: orDefault(mc.RebuildThreshold, 4096),
		retries:   orDefault(mc.RebuildRetries, 3),
		ctx:       ctx,
		cancel:    cancel,
		replayed:  len(replay),
	}
	if rec.TailErr != nil {
		mdb.recoveredTail = rec.TailErr.Error()
	}
	mdb.m.WALReplayed.Add(int64(len(replay)))
	if db.metrics != nil {
		db.metrics.SetMutation(mdb.m)
	}
	mdb.apply(replay)
	mdb.bat = mutate.NewBatcher(mc.BatchOps, mdb.commit)
	db.mut = mdb
	mdb.maybeRebuild()
	return nil
}

// apply publishes the serving snapshot with ops folded into its overlay:
// same graph, same index, one more epoch.
func (mdb *mutDB) apply(ops []mutate.Op) {
	st := mdb.db.publish(func(cur *serving) *serving {
		next := *cur
		next.ov = cur.ov.Apply(ops, cur.g.HasEdge)
		return &next
	})
	mdb.setOverlayGauges(st.ov)
}

func (mdb *mutDB) setOverlayGauges(ov *mutate.Overlay) {
	mdb.m.OverlayAdded.Set(int64(ov.AddedCount()))
	mdb.m.OverlayRemoved.Set(int64(ov.RemovedCount()))
}

// commit is the batcher's commit function: WAL first, overlay second,
// acknowledge third. Runs on the single flusher goroutine. sync forces
// durability (a Flush barrier was in the batch). A failed append rolled
// the file back (or marked the log broken): nothing was acknowledged,
// nothing is applied — the overlay and the WAL stay in lockstep.
func (mdb *mutDB) commit(ops []mutate.Op, sync bool) error {
	start := time.Now()
	var (
		n      int64
		synced bool
		err    error
	)
	if len(ops) > 0 {
		n, synced, err = mdb.wal.Append(ops, sync)
	} else if sync {
		err = mdb.wal.Sync()
		synced = true
	}
	if err != nil {
		mdb.m.WALErrors.Inc()
		mdb.m.Rejected.Add(int64(len(ops)))
		mdb.db.countFault(err)
		return err
	}
	if synced {
		mdb.m.WALFsyncs.Inc()
	}
	if len(ops) > 0 {
		mdb.m.WALAppends.Inc()
		mdb.m.WALBytes.Add(n)
		mdb.apply(ops)
		mdb.m.Applied.Add(int64(len(ops)))
	}
	mdb.m.FlushLatency.Record(time.Since(start))
	mdb.maybeRebuild()
	return nil
}

// maybeRebuild starts the background reindexer when the overlay has
// outgrown the threshold and no rebuild is already running. Called after
// every commit, so a degraded engine (retries exhausted) re-arms on the
// next successful write.
func (mdb *mutDB) maybeRebuild() {
	if mdb.threshold <= 0 || mdb.closed.Load() {
		return
	}
	if mdb.db.cur.Load().ov.Size() < mdb.threshold {
		return
	}
	if !mdb.rebuilding.CompareAndSwap(false, true) {
		return
	}
	mdb.wg.Add(1)
	go mdb.runRebuild()
}

// runRebuild drives one rebuild to success or retry exhaustion.
func (mdb *mutDB) runRebuild() {
	defer mdb.wg.Done()
	defer mdb.rebuilding.Store(false)
	for attempt := 0; ; attempt++ {
		err := mdb.rebuildOnce()
		if mdb.ctx.Err() != nil {
			return // Close is waiting: a cancelled fold is a stop, not a failure
		}
		if err == nil {
			mdb.m.RebuildDegraded.Set(0)
			return
		}
		mdb.m.RebuildFailures.Inc()
		if errors.Is(err, ErrIndexPanic) {
			mdb.m.RebuildPanics.Inc()
		}
		mdb.db.countFault(err)
		if attempt >= mdb.retries {
			// Give up for now: the old index + overlay keep serving
			// exactly; the next commit's maybeRebuild tries again.
			mdb.m.RebuildDegraded.Set(1)
			return
		}
		select {
		case <-time.After(rebuildBackoff << uint(attempt)):
		case <-mdb.ctx.Done():
			mdb.m.RebuildDegraded.Set(1)
			return
		}
	}
}

// rebuildOnce folds the serving overlay into a fresh frozen graph, builds
// a new index of the DB's plain kind over it off the hot path, and
// publishes the result. Ops that commit during the build land in the live
// overlay as usual; at publish time the live overlay is rebased onto the
// new graph so no mutation — including one that reverts a folded change —
// is lost or double-applied. Only this function changes the serving graph,
// and runRebuild runs one at a time, so the graph it folded forward from
// is still the one serving at publish: one fold, one publish. Panics
// anywhere inside (index builders included) are contained as
// ErrIndexPanic.
func (mdb *mutDB) rebuildOnce() (err error) {
	defer core.Recover(&err)
	faultinject.Hit(mutate.SiteRebuild)
	snap := mdb.db.cur.Load()
	if snap.ov.Empty() {
		return nil
	}
	b := graph.Patched(snap.g, edgesOf(snap.ov.Removed()), edgesOf(snap.ov.Added()))
	// Close cancels ctx and then waits for this goroutine, so look at ctx
	// between the steps too: after the fold, after Freeze, and BuildCtx
	// does on entry, after Prepare.
	if err := mdb.ctx.Err(); err != nil {
		return err
	}
	g1, err := b.Freeze()
	if err == nil {
		err = mdb.ctx.Err()
	}
	if err != nil {
		return err
	}
	opts := mdb.opts
	opts.Prepared = Prepare(g1)
	// A background rebuild leaves one CPU to the writer and the readers it
	// runs beside: at most GOMAXPROCS-1 workers, at least 1.
	opts.Workers = max(1, min(par.Resolve(opts.Workers), runtime.GOMAXPROCS(0)-1))
	ix1, err := BuildCtx(mdb.ctx, mdb.db.plain, g1, opts)
	if err != nil {
		return err
	}
	ix1 = mdb.db.instrument(ix1, g1)
	if hook := mdb.testHookPreSwap; hook != nil {
		hook()
	}
	st := mdb.db.publish(func(cur *serving) *serving {
		return &serving{g: g1, prep: opts.Prepared, ix: ix1, ov: mutate.Rebase(cur.ov, snap.ov)}
	})
	mdb.m.Rebuilds.Inc()
	mdb.setOverlayGauges(st.ov)
	return nil
}

// edgesOf unpacks a run of overlay edge keys; the order carries over.
func edgesOf(keys []uint64) []graph.Edge {
	es := make([]graph.Edge, len(keys))
	for i, k := range keys {
		es[i].From, es[i].To = mutate.KeyEdge(k)
	}
	return es
}

// submit validates nothing (the DB entry points did) and rides the
// group-commit batcher.
func (mdb *mutDB) submit(ctx context.Context, ops []mutate.Op) error {
	if mdb.closed.Load() {
		return mutate.ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return mdb.bat.Submit(ctx, ops)
}

// close drains the batcher (queued submissions are committed and
// acknowledged), stops any rebuild, and closes the WAL.
func (mdb *mutDB) close() error {
	if !mdb.closed.CompareAndSwap(false, true) {
		return nil
	}
	mdb.bat.Close()
	mdb.cancel()
	mdb.wg.Wait()
	return mdb.wal.Close()
}

// Mutate submits a slice of edge mutations as one atomic unit: all of
// them ride the same group commit, so after a crash either every op of
// the slice is replayed or none is. It blocks until the batch is durable
// per the WAL's fsync policy (or ctx is done — the batch itself still
// commits; a caller that gave up may find its ops applied, like any
// write that times out in flight). Requires DBConfig.Mutation, else
// ErrNotMutable. Vertices must be in the graph's fixed universe
// (ErrVertexRange); the vertex set never changes, only edges.
func (db *DB) Mutate(ctx context.Context, ops []EdgeOp) error {
	if db.mut == nil {
		return ErrNotMutable
	}
	if len(ops) == 0 {
		return nil
	}
	mops := make([]mutate.Op, len(ops))
	for i, op := range ops {
		if err := core.CheckPair(db.g.N(), op.From, op.To); err != nil {
			db.mut.m.Rejected.Add(int64(len(ops)))
			return err
		}
		mops[i] = mutate.Op{Remove: op.Remove, From: op.From, To: op.To}
	}
	return db.mut.submit(ctx, mops)
}

// AddEdge adds the edge (s, t) to the live graph. See Mutate for the
// durability and blocking contract.
func (db *DB) AddEdge(ctx context.Context, s, t V) error {
	return db.Mutate(ctx, []EdgeOp{{From: s, To: t}})
}

// RemoveEdge removes the edge (s, t) from the live graph (a no-op if
// absent). See Mutate for the durability and blocking contract.
func (db *DB) RemoveEdge(ctx context.Context, s, t V) error {
	return db.Mutate(ctx, []EdgeOp{{Remove: true, From: s, To: t}})
}

// Flush is the durability barrier: it forces any buffered group-commit
// window to commit and fsyncs the WAL regardless of the fsync policy.
// When Flush returns nil, every mutation acknowledged before the call
// survives power loss. On a non-mutable DB it is a no-op.
func (db *DB) Flush(ctx context.Context) error {
	if db.mut == nil {
		return nil
	}
	return db.mut.submit(ctx, nil)
}

// Close shuts the mutation engine down: queued submissions are committed
// and acknowledged, the background reindexer is stopped, and the WAL is
// synced and closed; further mutations fail. Queries keep working. On a
// DB that is not mutable it is a no-op.
func (db *DB) Close() error {
	if db.mut == nil {
		return nil
	}
	return db.mut.close()
}

// MutationStats reports the mutation engine's current state; ok is false
// on a non-mutable DB.
func (db *DB) MutationStats() (stats mutate.Stats, ok bool) {
	if db.mut == nil {
		return mutate.Stats{}, false
	}
	mdb := db.mut
	st := db.cur.Load()
	return mutate.Stats{
		OverlayAdded:   st.ov.AddedCount(),
		OverlayRemoved: st.ov.RemovedCount(),
		WALSeq:         mdb.wal.Seq(),
		WALBytes:       mdb.wal.Size(),
		Replayed:       mdb.replayed,
		RecoveredTail:  mdb.recoveredTail,
		Rebuilding:     mdb.rebuilding.Load(),
		Degraded:       mdb.m.RebuildDegraded.Load() != 0,
	}, true
}

// BatchReachCtx evaluates many plain reachability queries against the
// live graph, and has one route: load the serving snapshot once for the
// whole batch and hand its index — behind the overlay decision while
// mutations are pending — to BatchReachCtx. A commit or rebuild mid-batch
// therefore never splits a batch across two epochs. The
// batch is answered on the calling goroutine (one worker): a server's
// parallelism comes from its concurrent requests, and a pool per request
// competes with them for the same CPUs (through HTTP it cost batch-http
// about 11 % of its throughput, EXPERIMENTS.md E29). A lone in-process
// caller, an overlay batch and the sharded engine get one worker too; in
// one process a lone BFL caller ran about a third faster on the pool
// (E29). Panics inside the index are contained and counted like on every
// other query entry point.
func (db *DB) BatchReachCtx(ctx context.Context, pairs []Pair) (out []bool, err error) {
	defer db.boundary(&err)
	st := db.cur.Load()
	return batchReach(ctx, st.batchIndex(), st.g, pairs, 1)
}

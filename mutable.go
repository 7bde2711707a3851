package reach

// This file is the fourth layer of the live-mutation subsystem (the
// batcher, WAL, and overlay live in internal/mutate): the engine that
// binds them to a DB and the background reindexer that folds the delta
// back into a frozen index. The serving invariant it maintains:
//
//	answer(s, t) == reach in (base graph ± overlay), always
//
// Readers load one immutable mutState (graph, index, overlay) through an
// atomic pointer and never lock. Writers — the group-commit apply and
// the rebuild publish — serialize on wmu and publish fresh states. A
// rebuild failure (panic, cancellation, anything) leaves the old state
// serving: availability degrades to "overlay keeps growing", never to
// wrong or missing answers.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/scratch"
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
// edges come and go, vertices do not. It is mutually exclusive with
// CacheSize (cached answers would go stale) and ExtraPlain (only the
// primary index is rebuilt).
type MutationConfig struct {
	// WALPath is the write-ahead log file. Required. An existing WAL is
	// replayed on start (acknowledged mutations survive restarts); a torn
	// tail from a crash mid-commit is truncated, a file that is not a WAL
	// fails NewDB rather than being overwritten.
	WALPath string
	// Fsync selects the durability policy. Default FsyncAlways.
	Fsync FsyncMode
	// BatchOps caps ops per group commit. Default 128.
	BatchOps int
	// BatchDelay is the group-commit window: a submitted op waits at most
	// this long for companions before its batch flushes. Default 2ms.
	BatchDelay time.Duration
	// RebuildThreshold is the overlay size (added+removed edges) that
	// triggers a background reindex folding the delta into a fresh frozen
	// index. 0 selects 4096; negative disables background rebuilds (the
	// overlay grows without bound — tests use this to pin the overlay).
	RebuildThreshold int
	// RebuildRetries is how many times a failed rebuild is retried (with
	// exponential backoff) before the engine gives up until the next
	// commit re-triggers it. 0 selects 3; negative means no retries.
	RebuildRetries int
	// RebuildBackoff is the base retry backoff, doubling per attempt.
	// Default 50ms.
	RebuildBackoff time.Duration
}

// EdgeOp is one edge mutation submitted through DB.Mutate.
type EdgeOp struct {
	Remove   bool
	From, To V
}

// MutationStats is the point-in-time mutation view in DB.MutationStats
// and /admin/stats.
type MutationStats struct {
	OverlayAdded   int    `json:"overlay_added"`
	OverlayRemoved int    `json:"overlay_removed"`
	WALSeq         uint64 `json:"wal_seq"`
	WALBytes       int64  `json:"wal_bytes"`
	Replayed       int    `json:"replayed,omitempty"`
	RecoveredTail  string `json:"recovered_tail,omitempty"`
	Rebuilding     bool   `json:"rebuilding,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
}

// mutState is one immutable serving state: a frozen graph, the index
// built over it, and the overlay of mutations the index does not know.
// Queries load exactly one state, so every answer is internally
// consistent even while commits and rebuilds publish new states.
type mutState struct {
	g    *Graph
	prep *PreparedGraph
	ix   Index
	ov   *mutate.Overlay
}

// mutDB is the mutation engine hanging off a DB.
type mutDB struct {
	kind Kind
	opts Options // rebuild options: Spans stripped, Prepared replaced per rebuild

	m   *obs.MutationMetrics // always allocated; exported only when DB metrics are on
	dbm *obs.DBMetrics       // nil when DBConfig.Metrics is off

	state atomic.Pointer[mutState]
	wmu   sync.Mutex // serializes state writers (commit apply, rebuild publish)

	wal   *mutate.Log
	fsync FsyncMode
	bat   *mutate.Batcher

	threshold int // overlay size triggering a rebuild; 0 = disabled
	retries   int
	backoff   time.Duration

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
	case cfg.CacheSize > 0:
		return fmt.Errorf("%w: Mutation and CacheSize are mutually exclusive (cached answers would go stale under mutation)", ErrBadOptions)
	case len(cfg.ExtraPlain) > 0:
		return fmt.Errorf("%w: Mutation and ExtraPlain are mutually exclusive (only the primary index is rebuilt)", ErrBadOptions)
	case mc.Fsync != FsyncAlways && mc.Fsync != FsyncNever:
		return fmt.Errorf("%w: unknown Fsync mode %v", ErrBadOptions, mc.Fsync)
	}
	return nil
}

// initMutation opens and replays the WAL and starts the mutation engine.
// Called at the end of NewDBCtx, after the plain index is built (and
// instrumented). Replayed mutations go into the overlay — the index on
// disk or freshly built reflects the base graph, the WAL carries what
// happened since.
func (db *DB) initMutation(cfg DBConfig) error {
	mc := cfg.Mutation
	wal, rec, err := mutate.Open(mc.WALPath, mc.Fsync)
	if err != nil {
		return err
	}
	n := uint32(db.g.N())
	for _, b := range rec.Batches {
		for _, op := range b.Ops {
			if op.From >= n || op.To >= n {
				wal.Close()
				return fmt.Errorf("%w: WAL %s references vertex %d but the graph has %d vertices (WAL/graph mismatch)",
					ErrBadOptions, mc.WALPath, max(op.From, op.To), n)
			}
		}
	}
	ov := mutate.NewOverlay()
	replayed := 0
	for _, b := range rec.Batches {
		for _, op := range b.Ops {
			ov.Apply(op, db.g.HasEdge)
			replayed++
		}
	}
	threshold := mc.RebuildThreshold
	switch {
	case threshold == 0:
		threshold = 4096
	case threshold < 0:
		threshold = 0 // disabled
	}
	retries := mc.RebuildRetries
	switch {
	case retries == 0:
		retries = 3
	case retries < 0:
		retries = 0
	}
	backoff := mc.RebuildBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	opts := cfg.Options
	opts.Spans = nil    // rebuild phases must not append to the DB's build timeline
	opts.Prepared = nil // each rebuild prepares its own graph
	ctx, cancel := context.WithCancel(context.Background())
	mdb := &mutDB{
		kind:      cfg.Plain,
		opts:      opts,
		m:         &obs.MutationMetrics{},
		dbm:       db.metrics,
		wal:       wal,
		fsync:     mc.Fsync,
		threshold: threshold,
		retries:   retries,
		backoff:   backoff,
		ctx:       ctx,
		cancel:    cancel,
		replayed:  replayed,
	}
	if rec.TailErr != nil {
		mdb.recoveredTail = rec.TailErr.Error()
	}
	mdb.m.WALReplayed.Add(int64(replayed))
	mdb.setOverlayGauges(ov)
	if db.metrics != nil {
		db.metrics.SetMutation(mdb.m)
	}
	mdb.state.Store(&mutState{g: db.g, prep: db.prep, ix: db.plain, ov: ov})
	mdb.bat = mutate.NewBatcher(mc.BatchOps, mc.BatchDelay, mdb.commit)
	db.mut = mdb
	mdb.maybeRebuild()
	return nil
}

func (mdb *mutDB) setOverlayGauges(ov *mutate.Overlay) {
	mdb.m.OverlayAdded.Set(int64(ov.AddedCount()))
	mdb.m.OverlayRemoved.Set(int64(ov.RemovedCount()))
}

// countFault mirrors the fault accounting of the query boundary for
// engine-side failures when DB metrics are on.
func (mdb *mutDB) countFault(err error) {
	if mdb.dbm == nil {
		return
	}
	mdb.dbm.Errors.Inc()
	if errors.Is(err, ErrIndexPanic) {
		mdb.dbm.Panics.Inc()
	}
	if errors.Is(err, ErrBuildCanceled) {
		mdb.dbm.Canceled.Inc()
	}
}

// commit is the batcher's commit function: WAL first, overlay second,
// acknowledge third. Runs on the single flusher goroutine. sync forces
// durability (a Flush barrier was in the window).
func (mdb *mutDB) commit(ops []mutate.Op, sync bool) error {
	start := time.Now()
	if len(ops) > 0 {
		n, err := mdb.wal.Append(ops)
		if err == nil && sync && mdb.fsync == FsyncNever {
			err = mdb.wal.Sync()
			mdb.m.WALFsyncs.Inc()
		}
		if err != nil {
			// The append rolled the file back (or marked the log broken):
			// nothing was acknowledged, nothing is applied — the overlay
			// and the WAL stay in lockstep.
			mdb.m.WALErrors.Inc()
			mdb.m.Rejected.Add(int64(len(ops)))
			mdb.countFault(err)
			return err
		}
		mdb.m.WALAppends.Inc()
		mdb.m.WALBytes.Add(n)
		if mdb.fsync == FsyncAlways {
			mdb.m.WALFsyncs.Inc()
		}
		mdb.wmu.Lock()
		st := mdb.state.Load()
		ov := st.ov.Clone()
		for _, op := range ops {
			ov.Apply(op, st.g.HasEdge)
		}
		mdb.state.Store(&mutState{g: st.g, prep: st.prep, ix: st.ix, ov: ov})
		mdb.wmu.Unlock()
		mdb.m.Applied.Add(int64(len(ops)))
		mdb.setOverlayGauges(ov)
	} else if sync {
		if err := mdb.wal.Sync(); err != nil {
			mdb.m.WALErrors.Inc()
			mdb.countFault(err)
			return err
		}
		mdb.m.WALFsyncs.Inc()
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
	if mdb.state.Load().ov.Size() < mdb.threshold {
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
		if err == nil {
			mdb.m.RebuildDegraded.Set(0)
			return
		}
		mdb.m.RebuildFailures.Inc()
		if errors.Is(err, ErrIndexPanic) {
			mdb.m.RebuildPanics.Inc()
		}
		mdb.countFault(err)
		if attempt >= mdb.retries || mdb.ctx.Err() != nil {
			// Give up for now: the old index + overlay keep serving
			// exactly; the next commit's maybeRebuild tries again.
			mdb.m.RebuildDegraded.Set(1)
			return
		}
		select {
		case <-time.After(mdb.backoff << uint(attempt)):
		case <-mdb.ctx.Done():
			mdb.m.RebuildDegraded.Set(1)
			return
		}
	}
}

// rebuildOnce folds the current overlay into a fresh frozen graph,
// builds a new index over it off the hot path, and publishes the result
// through the atomic pointer. Ops that commit during the build land in
// the live overlay as usual; at publish time the live overlay is rebased
// onto the new graph so no mutation — including one that reverts a
// folded change — is lost or double-applied. Panics anywhere inside
// (index builders included) are contained as ErrIndexPanic.
func (mdb *mutDB) rebuildOnce() (err error) {
	defer core.Recover(&err)
	faultinject.Hit(mutate.SiteRebuild)
	snapSt := mdb.state.Load()
	snap := snapSt.ov
	if snap.Empty() {
		return nil
	}
	b := graph.Mutate(snapSt.g)
	snap.RemovedEdges(func(u, v uint32) {
		b.RemoveEdge(graph.Edge{From: u, To: v})
	})
	snap.AddedEdges(func(u, v uint32) {
		b.AddEdge(u, v)
	})
	g1, err := b.Freeze()
	if err != nil {
		return err
	}
	prep1 := Prepare(g1)
	opts := mdb.opts
	opts.Prepared = prep1
	ix1, err := BuildCtx(mdb.ctx, mdb.kind, g1, opts)
	if err != nil {
		return err
	}
	if mdb.dbm != nil {
		ix1 = core.Instrument(ix1, g1, mdb.dbm.Index(ix1.Name()))
	}
	if hook := mdb.testHookPreSwap; hook != nil {
		hook()
	}
	mdb.wmu.Lock()
	cur := mdb.state.Load()
	ov1 := mutate.Rebase(cur.ov, snap, snapSt.g.HasEdge, g1.HasEdge)
	mdb.state.Store(&mutState{g: g1, prep: prep1, ix: ix1, ov: ov1})
	mdb.wmu.Unlock()
	mdb.m.Rebuilds.Inc()
	mdb.setOverlayGauges(ov1)
	return nil
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

// Close shuts the background engines down. On a mutable DB, queued
// submissions are committed and acknowledged, the background reindexer
// is stopped, and the WAL is synced and closed; further mutations fail.
// On an auto-tuned DB the advisor loop stops (the currently published
// index serves forever). Queries keep working either way. On a plain DB
// it is a no-op.
func (db *DB) Close() error {
	if db.aut != nil {
		db.aut.close()
	}
	if db.mut == nil {
		return nil
	}
	return db.mut.close()
}

// MutationStats reports the mutation engine's current state; ok is false
// on a non-mutable DB.
func (db *DB) MutationStats() (stats MutationStats, ok bool) {
	if db.mut == nil {
		return MutationStats{}, false
	}
	mdb := db.mut
	st := mdb.state.Load()
	return MutationStats{
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

// reachCurrent answers plain reachability against the live graph: the
// serving plain index when the DB is not mutable (or the overlay is
// empty), exact overlay-aware evaluation otherwise. On an auto-tuned DB
// the serving index is whatever the advisor last published.
func (db *DB) reachCurrent(s, t V) bool {
	if db.mut == nil {
		return db.plainCurrent().Reach(s, t)
	}
	return db.mut.state.Load().reach(s, t)
}

// reach is the delta-overlay query path. Exactness argument, by overlay
// shape:
//
//   - Empty overlay: the frozen index is the live graph. Probe it.
//   - Adds only: the live graph is a supergraph of the frozen one, so
//     the index's positives stay valid (probe first) and its negatives
//     can only be flipped by paths through added edges — found by the
//     anchor search over the added-edge set (reachWithAdds).
//   - Removals present: the index's positives are no longer trustworthy
//     (the certifying path may use a removed edge), so positives are
//     recomputed by BFS over the overlaid adjacency. Negatives stay
//     trustworthy when there are no adds — removing edges only shrinks
//     reachability — which gives the negative shortcut.
func (st *mutState) reach(s, t V) bool {
	if s == t {
		return true
	}
	ov := st.ov
	switch {
	case ov.Empty():
		return st.ix.Reach(s, t)
	case ov.RemovedCount() == 0:
		if st.ix.Reach(s, t) {
			return true
		}
		return st.reachWithAdds(s, t)
	case ov.AddedCount() == 0 && !st.ix.Reach(s, t):
		return false
	default:
		return st.bfsOverlaid(s, t)
	}
}

// reachWithAdds decides s→t on base+adds given the frozen index already
// said no on the base graph alone. Any witnessing path must cross added
// edges; between crossings it runs on the base graph, where the index is
// exact. So search over "anchors": s plus the heads of activated added
// edges. An added edge (u, v) activates when some anchor base-reaches u;
// an anchor that base-reaches t wins. Each of the A added edges
// activates at most once, giving O(A²) index probes worst case — A is
// bounded by the rebuild threshold, and probes are microseconds. The
// anchors (Queue), the edge list (Queue2 → Aux) and the set of anchored
// vertices all live in the query arena.
func (st *mutState) reachWithAdds(s, t V) bool {
	sc := scratch.Get(st.g.N())
	defer scratch.Put(sc)
	st.ov.AddedEdges(func(u, v uint32) {
		sc.Queue2 = append(sc.Queue2, u)
		sc.Aux = append(sc.Aux, v)
	})
	anchored := sc.Visited()
	anchored.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	for i := 0; i < len(sc.Queue); i++ {
		a := sc.Queue[i]
		if i > 0 && (a == t || st.ix.Reach(a, t)) {
			// i == 0 is s itself, whose base probe the caller already made.
			return true
		}
		for j, u := range sc.Queue2 {
			v := sc.Aux[j]
			if !anchored.Test(int(v)) && (a == u || st.ix.Reach(a, u)) {
				anchored.Set(int(v))
				sc.Queue = append(sc.Queue, v)
			}
		}
	}
	return false
}

// bfsOverlaid decides s→t by BFS over the overlaid adjacency. The exact
// fallback when removals invalidate the frozen index's positives.
func (st *mutState) bfsOverlaid(s, t V) bool {
	sc := scratch.Get(st.g.N())
	defer scratch.Put(sc)
	return st.bfs(sc, s, t)
}

// bfs runs a plain BFS from s over the overlaid adjacency — base
// successors minus removed edges plus added ones — in the arena sc, until
// it discovers t. sc.Queue holds the vertices in discovery order and
// sc.Aux, in parallel, the queue position each was discovered from, so
// the shortest path to a found t (the queue's last entry) can be read
// back without per-vertex storage.
func (st *mutState) bfs(sc *scratch.T, s, t V) bool {
	visited := sc.Visited()
	visited.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	sc.Aux = append(sc.Aux, 0)
	for qi := 0; qi < len(sc.Queue); qi++ {
		found := st.eachSucc(sc.Queue[qi], func(v V) bool {
			if visited.Test(int(v)) {
				return false
			}
			visited.Set(int(v))
			sc.Queue = append(sc.Queue, v)
			sc.Aux = append(sc.Aux, V(qi))
			return v == t
		})
		if found {
			return true
		}
	}
	return false
}

// eachSucc iterates u's successors in the live graph (base minus removed
// plus added); fn returning true stops the iteration and is propagated.
func (st *mutState) eachSucc(u V, fn func(v V) bool) bool {
	ov := st.ov
	for _, v := range st.g.Succ(u) {
		if ov.RemovedCount() > 0 && ov.HasRemoved(u, v) {
			continue
		}
		if fn(v) {
			return true
		}
	}
	for _, v := range ov.AddedSucc(u) {
		if fn(v) {
			return true
		}
	}
	return false
}

// witnessPath reconstructs a shortest s→t path on the overlaid graph from
// the BFS's discovery links. Caller has established reachability.
func (st *mutState) witnessPath(s, t V) []V {
	if s == t {
		return []V{s}
	}
	sc := scratch.Get(st.g.N())
	defer scratch.Put(sc)
	if !st.bfs(sc, s, t) {
		return nil
	}
	var path []V
	for i := len(sc.Queue) - 1; i > 0; i = int(sc.Aux[i]) {
		path = append(path, sc.Queue[i])
	}
	path = append(path, s)
	slices.Reverse(path)
	return path
}

// overlaid is a serving state with pending mutations seen as an Index —
// every Reach is the exact delta-overlay decision — so a batch over a
// non-empty overlay runs through the same call as any other.
type overlaid struct{ *mutState }

func (o overlaid) Name() string      { return o.ix.Name() }
func (o overlaid) Stats() Stats      { return o.ix.Stats() }
func (o overlaid) Reach(s, t V) bool { return o.reach(s, t) }

// BatchReach implements core.BatchIndex: the adapter hides the
// instrumented index underneath from core.BatchReach, so it counts the
// batch there itself, as that index would have, then answers pair by pair.
func (o overlaid) BatchReach(ctx context.Context, pairs []Pair, out []bool, workers int) error {
	if w, ok := o.ix.(*core.Instrumented); ok { // only ever made with metrics on
		w.Metrics().ObserveBatch(len(pairs))
	}
	return core.BatchEach(ctx, o, pairs, out, workers)
}

// BatchReachCtx evaluates many plain reachability queries against the
// live graph, and has one route: pin the serving plain index once for the
// whole batch — the advisor's current pick on an auto-tuned DB, the
// sharded engine on a sharded one, the loaded state's index (behind the
// overlay decision while mutations are pending) on a mutable one — and
// hand it to BatchReachCtx. A hot swap or commit mid-batch therefore never
// splits a batch across two indexes. Panics inside the index are contained
// and counted like on every other query entry point.
func (db *DB) BatchReachCtx(ctx context.Context, pairs []Pair) (out []bool, err error) {
	defer db.boundary(&err)
	ix, g := db.plainCurrent(), db.g
	if db.mut != nil {
		st := db.mut.state.Load()
		ix, g = st.ix, st.g
		if !st.ov.Empty() {
			ix = overlaid{st}
		}
	}
	return batchReach(ctx, ix, g, pairs, 0)
}

package reach

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/labelset"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/regexpath"
	"repro/internal/rpqindex"
	"repro/internal/tc"
	"repro/internal/traversal"
	"repro/internal/workload"
)

// DB bundles a graph with one index per query class and routes arbitrary
// path-constraint expressions to the right one — the "full-fledged index
// in a GDBMS" integration the paper's §5 envisions. Constraints outside
// the two indexable fragments are answered by product-automaton search
// (§2.3's guided traversal), so every query of the α grammar is supported.
//
// Every query entry point validates its vertices (ErrVertexRange) and
// contains panics escaping an index implementation (ErrIndexPanic), so a
// broken or partially built index can fail a query but never the process.
type DB struct {
	// g is the graph the DB was built over. It fixes what never changes —
	// the vertex universe, names and labels — so it bounds every vertex
	// check and serves the labeled routes (a labeled graph is never
	// mutable). The graph plain reachability answers over is cur's.
	g *Graph
	// plain is the plain index's kind, fixed for the DB's life: a rebuild
	// builds the same kind again.
	plain Kind
	// cur is the serving snapshot of the plain engine — graph, memo, index,
	// overlay, epoch — and wmu the lock its one writer, publish, holds
	// (see serving.go). Every plain read loads cur exactly once.
	cur atomic.Pointer[serving]
	wmu sync.Mutex
	lcr LCRIndex
	rlc RLCIndex
	// lcrErr/rlcErr are non-nil when the corresponding build failed and
	// DBConfig.Degraded kept the DB serving: the route runs index-free
	// (online traversal) and Stats/DegradedRoutes expose the cause.
	lcrErr, rlcErr error
	// registered holds dedicated indexes for hot constraints (§5's
	// query-log-driven scenario), keyed by normalized expression.
	registered map[string]*ConstraintIndex
	// cache is the sharded query-result cache, nil unless
	// DBConfig.CacheSize enabled it (every qcache method is nil-safe).
	cache *qcache.Cache
	// metrics is non-nil when DBConfig.Metrics enabled observability:
	// routing counters, per-index query metrics, and build-phase spans.
	metrics *obs.DBMetrics
	// recorder appends one workload record per completed query when
	// DBConfig.RecordWorkload installed it; nil otherwise.
	recorder *workload.Recorder
	// timed is set when something consumes a query's latency — metrics or
	// the recorder — so a DB with neither never reads the clock.
	timed bool
	// unobserved is set when nothing the DB owns watches a plain query: no
	// cache, not timed. A call without a trace in its context then goes
	// straight to the probe.
	unobserved bool
	// mut is the live-mutation engine, nil unless DBConfig.Mutation
	// enabled it (see mutable.go). It only produces snapshots for cur; no
	// read asks whether it is running.
	mut *mutDB
}

// Cache key route tags. Only routes whose (route, s, t, extra) tuple fully
// determines the answer are cached: plain reachability (extra = the
// serving epoch, so an answer cached before a commit is never read after
// it), alternation star and plus (extra = label mask), and short
// concatenation sequences (extra = packed sequence). Product-automaton and registered-constraint queries
// are keyed by an expression string, which does not fit an exact fixed
// key, so they are never cached. Degraded routes ARE cached — the online
// fallback is exact, just slow, which makes it the route that profits most.
const (
	cacheRoutePlain uint8 = iota + 1
	cacheRouteLCRStar
	cacheRouteLCRPlus
	cacheRouteRLC
)

// packSeq packs a short concatenation sequence into a cache-key word:
// length in the top 16 bits, labels (uint16) in the low three lanes.
// Sequences longer than three labels do not fit an exact key and report
// ok = false, which skips caching for them.
func packSeq(seq []Label) (extra uint64, ok bool) {
	if len(seq) > 3 {
		return 0, false
	}
	extra = uint64(len(seq)) << 48
	for i, l := range seq {
		extra |= uint64(l) << (16 * i)
	}
	return extra, true
}

// DBConfig selects the indexes a DB builds.
type DBConfig struct {
	// Plain selects the plain-reachability index. Default KindBFL.
	Plain Kind
	// LCR selects the alternation index (labeled graphs only). Default
	// LCRP2H.
	LCR LCRKind
	// RLC enables the concatenation index (labeled graphs only).
	// Default true for labeled graphs.
	RLC bool
	// Options passes the per-technique tunables through.
	Options Options
	// Metrics enables the observability layer: build-phase spans are
	// recorded during NewDB, every query is counted and timed per routing
	// class, and the plain index is wrapped to record probe-level
	// decided/fallback/visited detail. See OBSERVABILITY.md. Disabled
	// (the default), queries pay one nil comparison.
	Metrics bool
	// Degraded keeps the DB serving when an optional index build fails.
	// When an LCR or RLC build panics or is canceled, the DB comes up
	// anyway and answers that query class by online traversal (correct,
	// just slower); DegradedRoutes, Stats and MetricsSnapshot expose the
	// degradation. Configuration errors (bad options, unknown kinds) and
	// plain-index failures always fail NewDB — there is nothing sensible
	// to degrade to. Default false: any build failure fails NewDB.
	Degraded bool
	// CacheSize enables the sharded query-result cache with room for this
	// many entries (0 disables it, the default). Cached routes are the
	// ones whose key determines the answer exactly — plain reachability,
	// alternation masks, short concatenation sequences — including their
	// degraded fallbacks; see OBSERVABILITY.md for the cache/* counters.
	// On a mutable DB every commit advances the serving epoch the plain
	// route's keys carry, so earlier entries are never read again and age
	// out through CLOCK.
	CacheSize int
	// Deprecated: Tracing is ignored. The *Ctx query entry points append
	// named phase timings (cache lookup, index probe, fallback traversal)
	// to any obs.Trace their context carries; internal/server's middleware
	// puts one there when its Config.Tracer is set, and a nil context is
	// never searched. The field stays only because cmd/reachload, which
	// changes only together with the benchmark, still sets it.
	Tracing bool
	// RecordWorkload, when non-nil, appends one record per completed
	// query — (s, t, constraint, route, outcome, latency) — to the given
	// recorder: the capture `reachcli replay` re-runs against any index
	// kind and `reachcli advise` picks an index from. The caller
	// owns the recorder's lifecycle (Close flushes). Recording times
	// every query (two clock reads each); see OBSERVABILITY.md.
	RecordWorkload *WorkloadRecorder
	// PlainSnapshot, when non-nil, warm-starts the plain index from a
	// snapshot previously written with SaveIndex instead of building it
	// (see LoadIndex): the snapshot is read into memory, its checksum
	// verified, and the index bound to views of it, recorded as an
	// "index/load" span (a warm-started DB's build timeline has no
	// "index/build" phase). The snapshot must pair with g and with Plain —
	// the snapshottable kinds are KindBFL (the default), KindPLL, and
	// KindDL; a kind or graph mismatch fails NewDB with a typed error.
	// LCR/RLC indexes are always built fresh.
	PlainSnapshot io.Reader
	// PlainSnapshotMapped, when non-empty, warm-starts the plain index
	// from the snapshot file at this path, page-mapped instead of read
	// (see LoadIndexMapped): the label arrays are zero-copy views into the
	// mapping. The file layout is the one SaveIndex writes. Mutually
	// exclusive with PlainSnapshot. The same kind pairing rules apply.
	PlainSnapshotMapped string
	// PlainIndex, when non-nil, installs a pre-built index as the plain
	// engine instead of building (or snapshot-loading) one. The index must
	// answer over g; Plain should name it (when empty it defaults to the
	// index's Name()). This is how NewShardedDB mounts the sharded
	// scatter-gather engine behind the full DB surface. It replaces the
	// snapshot warm starts, and an engine installed pre-built has no
	// producer that can rebuild it: Mutation is refused with
	// ErrPrebuiltEngine.
	PlainIndex Index
	// Mutation, when non-nil, makes the DB writable: AddEdge/RemoveEdge/
	// Mutate group-commit through a write-ahead log, queries answer
	// exactly from the frozen index plus a delta overlay, and a
	// background reindexer periodically folds the delta into a fresh
	// index published by hot swap. Unlabeled graphs only. An existing WAL
	// at Mutation.WALPath is replayed during NewDB (after any
	// PlainSnapshot load), so acknowledged mutations survive restarts. See
	// mutable.go and DESIGN.md ("Mutation & durability").
	Mutation *MutationConfig
}

// NewDB builds a DB over g. For unlabeled graphs only the plain index is
// built; genuinely labeled path-constrained queries then return an error
// (trivially plain constraints still work — see Query).
func NewDB(g *Graph, cfg DBConfig) (*DB, error) {
	return NewDBCtx(context.Background(), g, cfg)
}

// NewDBCtx is NewDB under a context: index builds poll ctx at cooperative
// checkpoints. With cfg.Degraded a canceled or panicked LCR/RLC build
// degrades that route instead of failing construction; without it (or for
// the plain index) the first failure aborts with a typed error.
func NewDBCtx(ctx context.Context, g *Graph, cfg DBConfig) (*DB, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadOptions)
	}
	if cfg.Plain == "" {
		if cfg.PlainIndex != nil {
			cfg.Plain = Kind(cfg.PlainIndex.Name())
		} else {
			cfg.Plain = KindBFL
		}
	}
	if cfg.LCR == "" {
		cfg.LCR = LCRP2H
	}
	if cfg.PlainIndex != nil && cfg.Mutation != nil {
		return nil, ErrPrebuiltEngine
	}
	if err := checkMutationConfig(g, cfg); err != nil {
		return nil, err
	}
	db := &DB{
		g:        g,
		plain:    cfg.Plain,
		cache:    qcache.New(cfg.CacheSize),
		recorder: cfg.RecordWorkload,
		timed:    cfg.Metrics || cfg.RecordWorkload != nil,
	}
	db.unobserved = db.cache == nil && !db.timed
	if cfg.Metrics {
		db.metrics = obs.NewDBMetrics()
		if cfg.Options.Spans == nil {
			cfg.Options.Spans = &db.metrics.Build
		}
		if db.cache != nil {
			db.metrics.SetCacheSource(db.cache.Stats)
		}
	}
	// One preprocessing memo for every index the DB builds: the first
	// DAG-only build condenses, the rest hit the memo (visible as
	// cached=true "scc/condense" spans when metrics are on).
	if cfg.Options.Prepared == nil {
		cfg.Options.Prepared = Prepare(g)
	}
	var plain Index
	var err error
	warm := cfg.PlainSnapshot != nil || cfg.PlainSnapshotMapped != ""
	row, _ := core.Plain(string(cfg.Plain))
	if warm && cfg.PlainIndex == nil && row.Snapshot == "" {
		return nil, fmt.Errorf("%w: snapshot warm-start supports Plain in %q, not %q",
			ErrBadOptions, snapshotKinds(), cfg.Plain)
	}
	switch {
	case cfg.PlainIndex != nil && warm:
		return nil, fmt.Errorf("%w: PlainIndex is mutually exclusive with snapshot warm-start", ErrBadOptions)
	case cfg.PlainSnapshot != nil && cfg.PlainSnapshotMapped != "":
		return nil, fmt.Errorf("%w: PlainSnapshot and PlainSnapshotMapped are mutually exclusive", ErrBadOptions)
	case cfg.PlainIndex != nil:
		plain = cfg.PlainIndex
	case cfg.PlainSnapshotMapped != "":
		plain, err = LoadIndexMapped(cfg.PlainSnapshotMapped, g, cfg.Options)
	case cfg.PlainSnapshot != nil:
		plain, err = LoadIndex(cfg.PlainSnapshot, g, cfg.Options)
	default:
		plain, err = BuildCtx(ctx, cfg.Plain, g, cfg.Options)
	}
	if err != nil {
		return nil, err
	}
	if warm && row.Name != plain.Name() {
		return nil, fmt.Errorf("%w: snapshot contains a %q index but Plain is %q (%s)", ErrBadOptions, plain.Name(), cfg.Plain, row.Name)
	}
	boot := &serving{g: g, prep: cfg.Options.Prepared, ix: db.instrument(plain, g), ov: noOverlay}
	db.publish(func(*serving) *serving { return boot })
	if g.Labeled() {
		if db.lcr, err = buildLCRCtx(ctx, cfg.LCR, g, cfg.Options); err != nil {
			if !degradable(cfg, err) {
				return nil, err
			}
			db.lcrErr = err
			db.countFault(err)
		}
		if db.rlc, err = buildRLCCtx(ctx, g, cfg.Options); err != nil {
			if !degradable(cfg, err) {
				return nil, err
			}
			db.rlcErr = err
			db.countFault(err)
		}
	}
	if db.metrics != nil {
		var names []string
		if db.lcrErr != nil {
			names = append(names, "lcr")
		}
		if db.rlcErr != nil {
			names = append(names, "rlc")
		}
		if names != nil {
			db.metrics.SetDegraded(names)
		}
	}
	if cfg.Mutation != nil {
		if err := db.initMutation(cfg); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// degradable reports whether cfg tolerates this build failure. Only
// runtime faults (panic, cancellation) degrade; configuration errors
// would fail identically on every rebuild and so fail fast.
func degradable(cfg DBConfig, err error) bool {
	return cfg.Degraded &&
		(errors.Is(err, ErrIndexPanic) || errors.Is(err, ErrBuildCanceled))
}

// countFault is the one fault triple: every failure the DB contains — a
// panic at a query boundary, a tolerated build failure, a rejected commit,
// a failed rebuild — counts an error, and a panic or a cancellation too.
func (db *DB) countFault(err error) {
	if db.metrics == nil {
		return
	}
	db.metrics.Errors.Inc()
	if errors.Is(err, ErrIndexPanic) {
		db.metrics.Panics.Inc()
	}
	if errors.Is(err, ErrBuildCanceled) {
		db.metrics.Canceled.Inc()
	}
}

// Graph returns the graph the serving plain index was built over. On a
// mutable DB it advances at every background rebuild but does not reflect
// the not-yet-folded overlay; the vertex universe and names never change.
func (db *DB) Graph() *Graph { return db.cur.Load().g }

// Prepared returns the serving graph's preprocessing memo. Tests and
// callers building further indexes over the same graph can pass it through
// Options.Prepared to keep sharing the condensation.
func (db *DB) Prepared() *PreparedGraph { return db.cur.Load().prep }

// PlainIndex returns the serving plain index when kind is the configured
// Plain; ok is false for any other kind. On a mutable DB the index answers
// the graph it was built over (Graph), not the pending overlay.
func (db *DB) PlainIndex(kind Kind) (ix Index, ok bool) {
	if kind != db.plain {
		return nil, false
	}
	return db.cur.Load().ix, true
}

// Epoch returns the serving snapshot's epoch: it advances by one at every
// commit (the WAL replay at boot is the first) and background rebuild, and
// never otherwise.
func (db *DB) Epoch() uint64 { return db.cur.Load().epoch }

// CacheStats snapshots the query-result cache counters; ok is false when
// DBConfig.CacheSize left the cache disabled.
func (db *DB) CacheStats() (snap obs.CacheSnapshot, ok bool) {
	if db.cache == nil {
		return obs.CacheSnapshot{}, false
	}
	return db.cache.Stats(), true
}

// DegradedRoutes reports the serving routes running index-free after a
// tolerated build failure, keyed "lcr"/"rlc", with the build error as the
// value. Empty (nil) on a fully healthy DB.
func (db *DB) DegradedRoutes() map[string]error {
	var out map[string]error
	if db.lcrErr != nil {
		out = map[string]error{"lcr": db.lcrErr}
	}
	if db.rlcErr != nil {
		if out == nil {
			out = map[string]error{}
		}
		out["rlc"] = db.rlcErr
	}
	return out
}

// Metrics returns the DB's metrics root, or nil when DBConfig.Metrics was
// false.
func (db *DB) Metrics() *obs.DBMetrics { return db.metrics }

// MetricsSnapshot captures the DB's metrics; ok is false when the
// observability layer is disabled.
func (db *DB) MetricsSnapshot() (snap obs.Snapshot, ok bool) {
	if db.metrics == nil {
		return obs.Snapshot{}, false
	}
	return db.metrics.Snapshot(), true
}

// boundary is the deferred panic barrier of every query entry point: a
// panic escaping an index implementation becomes ErrIndexPanic (with the
// panicking goroutine's stack in the message) instead of crashing the
// caller, and the fault is counted when metrics are on.
func (db *DB) boundary(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	*errp = core.PanicError(r)
	db.countFault(*errp)
}

// Reach answers the plain reachability query Qr(s, t). Out-of-range
// vertices yield ErrVertexRange.
func (db *DB) Reach(s, t V) (bool, error) {
	return db.ReachCtx(nil, s, t)
}

// ReachCtx is Reach under a context: an already-canceled ctx returns its
// error without touching the index. (Point lookups are microsecond-scale,
// so there is no mid-query polling on this path; ctx matters when callers
// share one cancellation across many lookups.)
func (db *DB) ReachCtx(ctx context.Context, s, t V) (res bool, err error) {
	if err := core.CheckPair(db.g.N(), s, t); err != nil {
		return false, err
	}
	var tr *obs.Trace
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			db.countCanceled()
			return false, err
		}
		tr = obs.TraceFrom(ctx)
	}
	defer db.boundary(&err)
	if db.unobserved && tr == nil {
		return db.cur.Load().reach(s, t), nil
	}
	var start time.Time
	if db.timed {
		start = time.Now()
	}
	st := db.cur.Load()
	key := qcache.Key{Route: cacheRoutePlain, S: s, T: t, Extra: st.epoch}
	var hit bool
	if db.cache != nil {
		tok := tr.Begin("cache/lookup")
		res, hit = db.cache.Get(key)
		tr.End(tok)
	}
	if !hit {
		tok := tr.Begin("index/probe")
		res = st.reach(s, t)
		tr.End(tok)
		db.cache.Put(key, res)
	}
	tr.SetRoute(obs.RoutePlain.String())
	if db.timed {
		d := time.Since(start)
		if db.metrics != nil {
			db.metrics.Route(obs.RoutePlain).Observe(res, d)
		}
		db.record(s, t, "", nil, obs.RoutePlain, res, hit, d)
	}
	return res, nil
}

// record appends one workload record when capture is enabled. cached
// marks a result-cache hit: its latency is a cache-hit latency, so replay
// scoring skips it.
func (db *DB) record(s, t V, alpha string, labels []Label, route obs.RouteKind, res, cached bool, d time.Duration) {
	if db.recorder == nil {
		return
	}
	var ls []uint16
	if len(labels) > 0 {
		ls = make([]uint16, len(labels))
		for i, l := range labels {
			ls[i] = uint16(l)
		}
	}
	db.recorder.Record(workload.Record{
		S:       uint32(s),
		T:       uint32(t),
		Alpha:   alpha,
		Labels:  ls,
		Route:   route.String(),
		Outcome: res,
		Cached:  cached,
		Latency: d,
	})
}

func (db *DB) countCanceled() {
	if db.metrics != nil {
		db.metrics.Canceled.Inc()
	}
}

// Query answers the path-constrained reachability query Qr(s, t, α),
// where α follows the paper's grammar  α ::= l | α·α | α∪α | α+ | α*
// with '|' (or '∪') for alternation, '.' (or '·' or juxtaposition) for
// concatenation, and postfix '*' / '+'. Label names resolve against the
// graph's label registry.
//
// Routing: alternation-star constraints go to the LCR index,
// concatenation-star constraints to the RLC index, everything else to
// product-automaton search. On unlabeled graphs, constraints whose
// language is insensitive to labels (any alternation-star/plus, or a
// single-label star/plus) reduce to plain reachability and are answered
// by the plain index; genuinely labeled constraints return an error.
// Routes whose index build was degraded (see DBConfig.Degraded) are
// answered by online traversal instead of failing.
func (db *DB) Query(s, t V, alpha string) (bool, error) {
	return db.QueryCtx(nil, s, t, alpha)
}

// QueryCtx is Query under a context: the product-automaton route (the one
// query path that can traverse a large graph fraction) polls ctx and
// returns its error when canceled; index-lookup routes check ctx once up
// front.
func (db *DB) QueryCtx(ctx context.Context, s, t V, alpha string) (res bool, err error) {
	if err := core.CheckPair(db.g.N(), s, t); err != nil {
		return false, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			db.countCanceled()
			return false, err
		}
	}
	defer db.boundary(&err)
	tr := obs.TraceFrom(ctx)
	if !db.timed {
		res, route, _, err := db.query(ctx, tr, s, t, alpha)
		if err == nil {
			tr.SetRoute(route.String())
		}
		return res, err
	}
	start := time.Now()
	res, route, cached, err := db.query(ctx, tr, s, t, alpha)
	if err != nil {
		if db.metrics != nil {
			db.metrics.Errors.Inc()
			if ctx != nil && ctx.Err() != nil {
				db.metrics.Canceled.Inc()
			}
		}
		return res, err
	}
	tr.SetRoute(route.String())
	d := time.Since(start)
	if db.metrics != nil {
		db.metrics.Route(route).Observe(res, d)
	}
	db.record(s, t, alpha, nil, route, res, cached, d)
	return res, err
}

func (db *DB) query(ctx context.Context, tr *obs.Trace, s, t V, alpha string) (bool, obs.RouteKind, bool, error) {
	if !db.g.Labeled() {
		res, err := db.queryUnlabeled(s, t, alpha)
		return res, obs.RoutePlain, false, err
	}
	tok := tr.Begin("parse")
	ast, err := regexpath.Parse(alpha, regexpath.GraphResolver(db.g))
	tr.End(tok)
	if err != nil {
		return false, obs.RouteProduct, false, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if ix, ok := db.registered[ast.String()]; ok {
		tok := tr.Begin("index/registered")
		res := ix.Reach(s, t)
		tr.End(tok)
		return res, obs.RouteRegistered, false, nil
	}
	cl := regexpath.Classify(ast)
	switch cl.Class {
	case regexpath.ClassAlternation:
		if s == t && !cl.PlusOnly {
			return true, db.lcrRoute(), false, nil
		}
		if cl.PlusOnly {
			// (…)+ requires at least one edge; peel the first step and
			// then answer the star query from each allowed neighbour.
			res, cached := db.plusAlternation(tr, s, t, cl.Allowed)
			return res, db.lcrRoute(), cached, nil
		}
		res, route, cached := db.reachLC(tr, s, t, cl.Allowed)
		return res, route, cached, nil
	case regexpath.ClassConcatenation:
		if s == t && !cl.PlusOnly {
			return true, db.rlcRoute(), false, nil
		}
		res, route, cached := db.reachRLC(tr, s, t, cl.Sequence)
		return res, route, cached, nil
	default:
		tok := tr.Begin("fallback/product-bfs")
		dfa := regexpath.CompileDFA(regexpath.CompileNFA(ast), db.g.Labels())
		res, err := traversal.ProductBFSCtx(ctx, db.g, s, t, dfa)
		tr.End(tok)
		return res, obs.RouteProduct, false, err
	}
}

func (db *DB) lcrRoute() obs.RouteKind {
	if db.lcr == nil {
		return obs.RouteDegradedLCR
	}
	return obs.RouteLCR
}

func (db *DB) rlcRoute() obs.RouteKind {
	if db.rlc == nil {
		return obs.RouteDegradedRLC
	}
	return obs.RouteRLC
}

// reachLC answers the alternation-star query through the result cache,
// the LCR index, or — on a degraded DB — a label-constrained BFS on the
// graph itself. The label mask is the cache key's extra word, so distinct
// masks over one vertex pair cache independently. cached reports a
// result-cache hit (the latency the caller observed is a lookup, not a
// probe).
func (db *DB) reachLC(tr *obs.Trace, s, t V, allowed labelset.Set) (bool, obs.RouteKind, bool) {
	key := qcache.Key{Route: cacheRouteLCRStar, S: s, T: t, Extra: uint64(allowed)}
	if db.cache != nil {
		tok := tr.Begin("cache/lookup")
		res, ok := db.cache.Get(key)
		tr.End(tok)
		if ok {
			return res, db.lcrRoute(), true
		}
	}
	var res bool
	route := obs.RouteLCR
	if db.lcr != nil {
		tok := tr.Begin("index/lcr")
		res = db.lcr.ReachLC(s, t, allowed)
		tr.End(tok)
	} else {
		tok := tr.Begin("fallback/label-bfs")
		res = traversal.LabelConstrainedBFS(db.g, s, t, uint64(allowed))
		tr.End(tok)
		route = obs.RouteDegradedLCR
	}
	db.cache.Put(key, res)
	return res, route, false
}

// reachRLC answers the concatenation-star query through the result cache,
// the RLC index, or — on a degraded DB — the online phase-tracking
// search. Only sequences short enough to pack into the key's extra word
// exactly (≤ 3 labels) are cached; longer ones always compute.
func (db *DB) reachRLC(tr *obs.Trace, s, t V, seq []Label) (bool, obs.RouteKind, bool) {
	extra, packable := packSeq(seq)
	key := qcache.Key{Route: cacheRouteRLC, S: s, T: t, Extra: extra}
	if packable && db.cache != nil {
		tok := tr.Begin("cache/lookup")
		res, ok := db.cache.Get(key)
		tr.End(tok)
		if ok {
			return res, db.rlcRoute(), true
		}
	}
	var res bool
	route := obs.RouteRLC
	if db.rlc != nil {
		tok := tr.Begin("index/rlc")
		res = db.rlc.ReachRLC(s, t, seq)
		tr.End(tok)
	} else {
		tok := tr.Begin("fallback/rlc-traversal")
		res = tc.RLCReach(db.g, s, t, seq, false)
		tr.End(tok)
		route = obs.RouteDegradedRLC
	}
	if packable {
		db.cache.Put(key, res)
	}
	return res, route, false
}

// queryUnlabeled serves path-constrained queries on an unlabeled graph
// when the constraint is trivially plain-reachable. With every edge
// carrying the same implicit label, an alternation-star admits paths of
// every length (≥1 for plus), as does a single-label concatenation-star —
// both reduce to the plain index. Multi-label concatenations constrain
// the path length modulo the sequence length and genuinely need labels.
func (db *DB) queryUnlabeled(s, t V, alpha string) (bool, error) {
	ast, err := regexpath.Parse(alpha, regexpath.AnyResolver())
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	cl := regexpath.Classify(ast)
	plain := cl.Class == regexpath.ClassAlternation ||
		(cl.Class == regexpath.ClassConcatenation && len(cl.Sequence) == 1)
	if !plain {
		return false, fmt.Errorf(
			"%w: graph is unlabeled and constraint %q depends on edge labels; only label-insensitive constraints (e.g. (a|b)*) are answerable — use Reach for plain queries",
			ErrBadQuery, alpha)
	}
	if s == t && !cl.PlusOnly {
		return true, nil
	}
	st := db.cur.Load()
	if cl.PlusOnly {
		// At least one edge: step to every successor, then plain-star.
		return st.eachSucc(s, func(w V) bool {
			return w == t || st.reach(w, t)
		}), nil
	}
	return st.reach(s, t), nil
}

// plusAlternation answers (l1|l2|...)+ — at least one edge — by stepping
// through every allowed out-edge of s and finishing with the star query.
// Plus queries cache under their own route tag: (mask)+ and (mask)* give
// different answers on the same pair (s == t, or t only reachable via the
// empty path), so the two must never share a key.
func (db *DB) plusAlternation(tr *obs.Trace, s, t V, allowed labelset.Set) (bool, bool) {
	key := qcache.Key{Route: cacheRouteLCRPlus, S: s, T: t, Extra: uint64(allowed)}
	if res, ok := db.cache.Get(key); ok {
		return res, true
	}
	res := false
	succ := db.g.Succ(s)
	labs := db.g.SuccLabels(s)
	for i, w := range succ {
		if !allowed.Has(labs[i]) {
			continue
		}
		if w == t {
			res = true
			break
		}
		if r, _, _ := db.reachLC(tr, w, t, allowed); r {
			res = true
			break
		}
	}
	db.cache.Put(key, res)
	return res, false
}

// RegisterConstraint builds a dedicated index for the fixed constraint
// alpha; subsequent Query calls with an equivalent expression answer from
// it by lookups regardless of the constraint's class. This is the §5 "one
// indexing technique for general path constraints" direction, applied per
// hot constraint.
func (db *DB) RegisterConstraint(alpha string) (err error) {
	if !db.g.Labeled() {
		return fmt.Errorf("%w: graph is unlabeled", ErrBadQuery)
	}
	ast, err := regexpath.Parse(alpha, regexpath.GraphResolver(db.g))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	defer db.boundary(&err)
	// The expression was parsed once above for validation and map keying;
	// hand the AST through instead of parsing again inside the builder.
	ix := rpqindex.NewFromAST(db.g, alpha, ast)
	if db.registered == nil {
		db.registered = make(map[string]*ConstraintIndex)
	}
	db.registered[ast.String()] = ix
	return nil
}

// ReachPath returns a concrete shortest s-t path witnessing Qr(s, t), or
// nil when t is unreachable. Indexes certify existence; the witness comes
// from one BFS, as GDBMSs do when the user asks for the path itself.
func (db *DB) ReachPath(s, t V) (path []V, err error) {
	if err := core.CheckPair(db.g.N(), s, t); err != nil {
		return nil, err
	}
	defer db.boundary(&err)
	// One snapshot for both the decision and the witness, so a concurrent
	// commit or hot swap cannot split them.
	st := db.cur.Load()
	if !st.reach(s, t) {
		return nil, nil
	}
	return st.witnessPath(s, t), nil
}

// QueryPath returns the traversed edges of a path satisfying Qr(s, t, α),
// or nil when no such path exists. For s == t with a star constraint the
// empty edge list is returned.
func (db *DB) QueryPath(s, t V, alpha string) (edges []graph.Edge, err error) {
	if err := core.CheckPair(db.g.N(), s, t); err != nil {
		return nil, err
	}
	if !db.g.Labeled() {
		return nil, fmt.Errorf("%w: graph is unlabeled", ErrBadQuery)
	}
	ast, err := regexpath.Parse(alpha, regexpath.GraphResolver(db.g))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	defer db.boundary(&err)
	dfa := regexpath.CompileDFA(regexpath.CompileNFA(ast), db.g.Labels())
	return traversal.ConstrainedWitness(db.g, s, t, dfa), nil
}

// QueryAllowed answers the alternation query with an explicit label set —
// the LCR interface used by analytics loops that build masks directly.
// On a degraded DB the answer comes from online traversal.
func (db *DB) QueryAllowed(s, t V, labels ...Label) (res bool, err error) {
	if err := core.CheckPair(db.g.N(), s, t); err != nil {
		return false, err
	}
	if !db.g.Labeled() {
		return false, fmt.Errorf("%w: no LCR index (graph unlabeled)", ErrBadQuery)
	}
	defer db.boundary(&err)
	if !db.timed {
		if s == t {
			return true, nil
		}
		res, _, _ := db.reachLC(nil, s, t, labelset.Of(labels...))
		return res, nil
	}
	start := time.Now()
	res = s == t
	route := db.lcrRoute()
	cached := false
	if !res {
		res, route, cached = db.reachLC(nil, s, t, labelset.Of(labels...))
	}
	d := time.Since(start)
	if db.metrics != nil {
		db.metrics.Route(route).Observe(res, d)
	}
	db.record(s, t, "", labels, route, res, cached, d)
	return res, nil
}

// Stats returns the footprint of every serving index keyed by its name.
// Degraded routes appear under "degraded:lcr"/"degraded:rlc" with zero
// footprint, so operators see at a glance which class lost its index.
func (db *DB) Stats() map[string]Stats {
	plain := db.cur.Load().ix
	out := map[string]Stats{plain.Name(): plain.Stats()}
	if db.lcr != nil {
		out[db.lcr.Name()] = db.lcr.Stats()
	} else if db.lcrErr != nil {
		out["degraded:lcr"] = Stats{}
	}
	if db.rlc != nil {
		out[db.rlc.Name()] = db.rlc.Stats()
	} else if db.rlcErr != nil {
		out["degraded:rlc"] = Stats{}
	}
	return out
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
)

// The layer suite is the second half of every traced run. It replays
// generated streams through each layer boundary from the outside — real
// HTTP against a child, server.Handler().ServeHTTP on a recorder, the
// DB's public calls, the bare index — and reads the child's /metrics and
// /admin/stats. A layer's self time is its median minus the layer's below,
// so the rows of a stack sum to the client-side figure, with the transport
// row (net/http, the kernel's TCP path, the client) as the stated
// residual. It is the same suite whatever the workload, on inputs from the
// run's seed, so every per-layer metric is measured in every traced run.

// Durations of the suite's steps. They are short because a median over a
// few thousand calls is already steadier than the box.
const (
	stepDur     = 400 * time.Millisecond // one in-process replay
	miniHTTPDur = 1500 * time.Millisecond
	miniMixDur  = 3 * time.Second
	handlerStep = 16   // ServeHTTP calls per clock-read pair
	callStep    = 64   // DB / index calls per clock-read pair
	pinnedEdges = 2048 // overlay size mutate.overlay_read_ns is read at
	commitOps   = 8    // ops per DB.Mutate in mutate.commit_us
	hotSet      = 4096 // pairs of qcache's hot set
	cacheCap    = 65536
	spillSet    = 1 << 20
	shardN      = 50000 // vertices of the banded DAG the shard metrics run on
	shardBand   = 100   // its longest edge, in topological positions
	shardPairs  = 4096
	labeledN    = 5000
	labeledM    = 20000
)

// call is one layer's call in a replay: fn performs stream operation i,
// prep (optional) runs before a chunk's clock starts, because building a
// request is not the layer's cost.
type call struct {
	layer, parent uint8
	prep, fn      func(i uint64)
}

// interleave replays chunks of `step` stream operations through every call
// in turn — round 0 through calls[0], calls[1], …, then round 1 — for about
// dur per call, and returns each call's median ns per operation. Layers
// that are subtracted from one another are measured this way so that a slow
// second on the box slows them all alike. Within a round each call gets a
// chunk of its own (the same chunk would leave the later calls the labels
// the first one pulled into cache). Every chunk is one span.
func (rc *runCtx) interleave(dur time.Duration, step int, calls ...call) []float64 {
	per := make([][]float64, len(calls))
	start := time.Now()
	for i := uint64(0); time.Since(start) < dur*time.Duration(len(calls)) || len(per[0]) < 8; i += uint64(step) {
		for k, c := range calls {
			at := i + uint64(k)<<40
			if c.prep != nil {
				c.prep(at)
			}
			t0 := time.Now()
			for j := at; j < at+uint64(step); j++ {
				c.fn(j)
			}
			t1 := time.Now()
			rc.rec.add(0, c.layer, c.parent, at, step, t0, t1)
			per[k] = append(per[k], float64(t1.Sub(t0))/float64(step))
		}
	}
	out := make([]float64, len(calls))
	for k := range per {
		out[k] = median(per[k])
	}
	return out
}

// timeCalls is interleave for one call on its own.
func (rc *runCtx) timeCalls(step int, layer uint8, fn func(i uint64)) float64 {
	return rc.interleave(stepDur, step, call{layer: layer, fn: fn})[0]
}

func runLayers(rc *runCtx, rep *report) error {
	L := rep.PerLayer
	L["loadgen.calib_ns"] = rep.Host.CalibNs
	big, err := rc.subInputs("layers-big", bigN, bigM)
	if err != nil {
		return err
	}
	small, err := rc.subInputs("layers-small", smallN, smallM)
	if err != nil {
		return err
	}
	steps := []struct {
		name string
		in   *inputs
		run  func(*runCtx, *inputs, map[string]float64) error
	}{
		{"point stack", big, layersPoint},
		{"batch stack", small, layersBatch},
		{"mutation", small, layersMutate},
		{"opt-in features", small, layersOptIn},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.run(rc, s.in, L); err != nil {
			return fmt.Errorf("layer suite, %s: %w", s.name, err)
		}
		fmt.Printf("layer suite: %-16s %5.1fs\n", s.name, time.Since(t0).Seconds())
	}
	printStacks(L)
	return nil
}

// subInputs generates a graph for the suite in a directory of its own.
func (rc *runCtx) subInputs(name string, n, m int) (*inputs, error) {
	dir := filepath.Join(rc.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return makeInputs(rc.seed, n, m, dir)
}

// handlers builds the two in-process servers the replays compare: one
// configured as reachserve configures its own by default (request tracer
// and one access-log line per request, written to a file as the child's
// stderr is), one with neither.
func (rc *runCtx) handlers(db *reach.DB, tag string) (full, bare http.Handler, closeLog func(), err error) {
	logf, err := os.Create(filepath.Join(rc.dir, tag+"-access.log"))
	if err != nil {
		return nil, nil, nil, err
	}
	quiet := log.New(logf, "", 0)
	sf, err := server.New(server.Config{DB: db, Log: quiet, Tracer: obs.NewTracer(256, 250*time.Millisecond),
		AccessLog: slog.New(slog.NewTextHandler(logf, nil))})
	if err != nil {
		logf.Close()
		return nil, nil, nil, err
	}
	sb, err := server.New(server.Config{DB: db, Log: quiet})
	if err != nil {
		logf.Close()
		return nil, nil, nil, err
	}
	return sf.Handler(), sb.Handler(), func() { logf.Close() }, nil
}

// handlerCall is the call "h.ServeHTTP on a recorder" over requests built
// by mk, `step` to a chunk.
func (rc *runCtx) handlerCall(h http.Handler, step int, mk func(i uint64) *http.Request) call {
	reqs := make([]*http.Request, step)
	recs := make([]*httptest.ResponseRecorder, step)
	return call{
		layer: layerHandler, parent: layerClient,
		prep: func(i uint64) {
			for j := range reqs {
				reqs[j], recs[j] = mk(i+uint64(j)), httptest.NewRecorder()
			}
		},
		fn: func(i uint64) {
			k := i % uint64(step)
			h.ServeHTTP(recs[k], reqs[k])
			if recs[k].Code != http.StatusOK {
				rc.fault("in-process handler: status %d: %s", recs[k].Code, recs[k].Body.String())
			}
		},
	}
}

// --- point stack: the 1M-vertex DAG of point-http and embedded ---------

func layersPoint(rc *runCtx, in *inputs, L map[string]float64) error {
	L["gen.graph_s"] = in.genS
	uni := in.uniform("layers-point")
	mix := in.withPositives("layers-mix")

	// From outside: a child with the default flags, on CPUs of its own as
	// in point-http.
	undo := rc.splitCPUs()
	defer undo()
	c, err := rc.spawn("layers-point", "-graph", in.path, "-index", "bfl")
	if err != nil {
		return err
	}
	before, err := c.scrape()
	if err != nil {
		return err
	}
	gcOn := quietGC()
	one, closeOne := rc.reachOps(c.addr, 1, uni)
	cpu0, t0 := selfCPU(), time.Now()
	single := closedLoop(1, miniHTTPDur, one, rc.rec, 0)
	L["loadgen.client_cpu_share"] = (selfCPU() - cpu0) / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
	closeOne()
	many, closeMany := rc.reachOps(c.addr, 1, in.uniform("layers-open"))
	open := openLoop(1, openRate, miniHTTPDur, many, rc.rec)
	closeMany()
	gcOn()
	L["loadgen.sched_lag_p99_us"] = open.LagP99us
	L["loadgen.backlog_max"] = float64(open.BacklogMax)
	after, err := c.scrape()
	if err != nil {
		return err
	}
	L["server.accepted"] = after["reach_server_accepted_total"] - before["reach_server_accepted_total"]
	L["server.rejected"] = after["reach_server_rejected_total"] - before["reach_server_rejected_total"]
	L["server.boot_parse_s"] = c.bootS -
		after[`reach_build_phase_seconds{phase="scc/condense"}`] - after[`reach_build_phase_seconds{phase="index/build"}`]
	rc.stopClean(c)
	L["server.rss_peak_mb"] = c.peakRSSMB()
	L["client.reach_p50_us"] = single.P50us.Median
	undo()

	// In process: the same stream through each boundary below the socket.
	dbOff, err := reach.NewDB(in.g, reach.DBConfig{})
	if err != nil {
		return err
	}
	t0 = time.Now()
	dbOn, err := reach.NewDB(in.g, reach.DBConfig{Metrics: true, Tracing: true})
	if err != nil {
		return err
	}
	L["db.build_s"] = time.Since(t0).Seconds()
	snap, _ := dbOn.MetricsSnapshot()
	for _, sp := range snap.Build {
		switch sp.Name {
		case "scc/condense":
			L["db.build.condense_s"] = sp.Dur.Seconds()
		case "index/build":
			L["db.build.index_s"] = sp.Dur.Seconds()
		}
	}
	full, bare, closeLog, err := rc.handlers(dbOn, "layers-point")
	if err != nil {
		return err
	}
	defer closeLog()
	var target []byte
	mk := func(i uint64) *http.Request {
		s, t, _ := uni.draw(i)
		target = reachTarget(target, s, t)
		return httptest.NewRequest("GET", string(target), nil)
	}
	h := rc.interleave(stepDur, handlerStep, rc.handlerCall(full, handlerStep, mk), rc.handlerCall(bare, handlerStep, mk))
	L["server.handler_reach_us"] = h[0] / 1e3
	L["obs.default_telemetry_us"] = (h[0] - h[1]) / 1e3

	ix, ok := dbOff.PlainIndex(reach.KindBFL)
	if !ok {
		return fmt.Errorf("DB has no BFL index")
	}
	ctx := context.Background()
	neg := func(f func(s, t reach.V)) func(uint64) {
		return func(i uint64) {
			s, t, _ := uni.draw(i)
			f(reach.V(s), reach.V(t))
		}
	}
	pos := func(f func(s, t reach.V)) func(uint64) {
		return func(i uint64) {
			q := mix.pos[mix64(i)%uint64(len(mix.pos))]
			f(q.S, q.T)
		}
	}
	n := rc.interleave(stepDur, callStep,
		call{layer: layerDB, parent: layerHandler, fn: neg(func(s, t reach.V) { dbOn.ReachCtx(ctx, s, t) })},
		call{layer: layerDB, parent: layerHandler, fn: neg(func(s, t reach.V) { dbOff.Reach(s, t) })},
		call{layer: layerIndex, parent: layerDB, fn: neg(func(s, t reach.V) { ix.Reach(s, t) })})
	L["obs.metrics_overhead_ns"] = n[0] - n[1]
	L["db.reach_neg_ns"] = n[1]
	L["index.probe_neg_ns"] = n[2]
	L["db.overhead_ns"] = n[1] - n[2]
	pp := rc.interleave(stepDur, callStep,
		call{layer: layerDB, parent: layerHandler, fn: pos(func(s, t reach.V) { dbOff.Reach(s, t) })},
		call{layer: layerIndex, parent: layerDB, fn: pos(func(s, t reach.V) { ix.Reach(s, t) })})
	L["db.reach_pos_ns"], L["index.probe_pos_ns"] = pp[0], pp[1]
	L["server.transport_us"] = L["client.reach_p50_us"] - L["server.handler_reach_us"]

	// How much of the embedded mix the index decides without traversal.
	m0, _ := dbOn.MetricsSnapshot()
	for i := uint64(0); i < 200000; i++ {
		s, t, _ := mix.draw(i)
		dbOn.Reach(reach.V(s), reach.V(t))
	}
	m1, _ := dbOn.MetricsSnapshot()
	a, b := m0.Indexes["BFL"], m1.Indexes["BFL"]
	if q := float64(b.Queries - a.Queries); q > 0 {
		L["index.decided_share"] = float64(b.Decided-a.Decided) / q
		L["index.fallback_visited_per_query"] = float64(b.Visited-a.Visited) / q
	}
	L["index.bytes"] = float64(ix.Stats().Bytes)
	if _, labels, _, ok := reach.IndexSizes(ix); ok {
		L["index.label_bytes"] = float64(labels)
	}
	return nil
}

// --- batch stack: the 100k-vertex DAG of batch-http --------------------

func layersBatch(rc *runCtx, in *inputs, L map[string]float64) error {
	st := in.uniform("layers-batch")
	c, err := rc.spawn("layers-batch", "-graph", in.path, "-index", "bfl")
	if err != nil {
		return err
	}
	gcOn := quietGC()
	op, closeConns := rc.batchOps(c.addr, 1, st)
	single := closedLoop(1, miniHTTPDur, op, rc.rec, 0)
	closeConns()
	gcOn()
	rc.stopClean(c)
	L["client.batch_p50_us"] = single.P50us.Median

	db, err := reach.NewDB(in.g, reach.DBConfig{Metrics: true, Tracing: true})
	if err != nil {
		return err
	}
	full, _, closeLog, err := rc.handlers(db, "layers-batch")
	if err != nil {
		return err
	}
	defer closeLog()
	pairsOf := func(i uint64) []reach.Pair {
		ps := make([]reach.Pair, batchPairs)
		for j := range ps {
			s, t, _ := st.draw(i*batchPairs + uint64(j))
			ps[j] = reach.Pair{S: reach.V(s), T: reach.V(t)}
		}
		return ps
	}
	ix, ok := db.PlainIndex(reach.KindBFL)
	if !ok {
		return fmt.Errorf("DB has no BFL index")
	}
	ctx := context.Background()
	handler := rc.handlerCall(full, 1, func(i uint64) *http.Request {
		ps := pairsOf(i)
		body := appendBatchBody(nil, len(ps), func(j int) (s, t uint32) { return uint32(ps[j].S), uint32(ps[j].T) })
		return httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
	})
	var pairs []reach.Pair
	prep := func(i uint64) { pairs = pairsOf(i) }
	b := rc.interleave(stepDur, 1, handler,
		call{layer: layerDB, parent: layerHandler, prep: prep, fn: func(uint64) { db.BatchReachCtx(ctx, pairs) }},
		call{layer: layerIndex, parent: layerDB, prep: prep, fn: func(uint64) { reach.BatchReach(ix, in.g, pairs, 0) }})
	L["server.handler_batch_us"] = b[0] / 1e3
	L["batch.kernel_pairs_per_s"] = batchPairs / (b[1] / 1e9)
	L["batch.indexed_pairs_per_s"] = batchPairs / (b[2] / 1e9)
	L["batch.decode_us"] = (b[0] - b[1]) / 1e3
	L["server.transport_batch_us"] = L["client.batch_p50_us"] - L["server.handler_batch_us"]
	return nil
}

// --- mutation: DB.Mutate, the overlay read path, the WAL ----------------

func layersMutate(rc *runCtx, in *inputs, L map[string]float64) error {
	st := in.uniform("layers-mut-reads")
	script := gen.UpdateScript(in.g, pinnedEdges+commitOps, true, subSeed63(in.seed, "layers-updates"))

	// In process, rebuilds off so the overlay stays pinned where it is read.
	walPath := filepath.Join(rc.dir, "layers-inproc.wal")
	db, err := reach.NewDB(in.g, reach.DBConfig{Mutation: &reach.MutationConfig{WALPath: walPath, RebuildThreshold: -1}})
	if err != nil {
		return err
	}
	read := func(i uint64) {
		s, t, _ := st.draw(i)
		db.Reach(reach.V(s), reach.V(t))
	}
	emptyNs := rc.timeCalls(callStep, layerDB, read)
	ctx := context.Background()
	var commits []float64
	ms0, _ := db.MutationStats()
	for at := 0; at+commitOps <= pinnedEdges; at += commitOps {
		ops := make([]reach.EdgeOp, commitOps)
		for j, u := range script[at : at+commitOps] {
			ops[j] = reach.EdgeOp{Remove: !u.Insert, From: u.Edge.From, To: u.Edge.To}
		}
		t0 := time.Now()
		if err := db.Mutate(ctx, ops); err != nil {
			db.Close()
			return err
		}
		t1 := time.Now()
		rc.rec.add(0, layerDB, 0, uint64(at), 1, t0, t1)
		commits = append(commits, float64(t1.Sub(t0))/1e3)
	}
	ms1, _ := db.MutationStats()
	L["mutate.commit_us"] = median(commits)
	L["mutate.wal_bytes_per_op"] = float64(ms1.WALBytes-ms0.WALBytes) / float64(len(commits)*commitOps)
	L["mutate.overlay_read_ns"] = rc.timeCalls(callStep, layerDB, read) - emptyNs
	if err := db.Close(); err != nil {
		return err
	}

	// From outside: a short run of the mixed scenario against a child.
	wal := filepath.Join(rc.dir, "layers-child.wal")
	c, err := rc.spawn("layers-mixed", "-graph", in.path, "-index", "bfl", "-wal", wal)
	if err != nil {
		return err
	}
	before, err := c.scrape()
	if err != nil {
		return err
	}
	wr := newWriter(rc, c.addr, in)
	defer wr.c.close()
	readOp, closeReaders := rc.reachOps(c.addr, 1, st)
	stop := make(chan struct{})
	var busy, polls int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // control-plane sampler: is a rebuild running right now?
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if s, err := fetchStats(c.addr); err == nil && s.Mutation != nil {
					polls++
					if s.Mutation.Rebuilding {
						busy++
					}
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		closedLoop(1, miniMixDur, wr.op, rc.rec, 1)
	}()
	reads := closedLoop(1, miniMixDur, noVerify(readOp), rc.rec, 0)
	close(stop)
	wg.Wait()
	closeReaders()
	L["mutate.read_ops_per_s"], L["mutate.read_p50_us"] = reads.OpsPerS.Median, reads.P50us.Median
	after, err := c.scrape()
	if err != nil {
		return err
	}
	d := func(name string) float64 { return after[name] - before[name] }
	L["mutate.fsyncs"] = d("reach_wal_fsyncs_total")
	L["mutate.rebuilds"] = d("reach_rebuilds_total")
	if f := d("reach_wal_fsyncs_total"); f > 0 {
		L["mutate.group_size"] = d("reach_mutations_applied_total") / f
	}
	if polls > 0 {
		L["mutate.rebuild_busy_share"] = float64(busy) / float64(polls)
	}
	c.kill()
	c2, err := rc.spawn("layers-replay", "-graph", in.path, "-index", "bfl", "-wal", wal)
	if err != nil {
		return err
	}
	L["mutate.replay_s"] = c2.bootS
	wr.checkSurvivors(c2.addr)
	rc.stopClean(c2)
	return nil
}

// --- opt-in features: no workload turns these on yet --------------------

func layersOptIn(rc *runCtx, in *inputs, L map[string]float64) error {
	ckey := subSeed(rc.seed, "cache-pairs")
	ctx := context.Background()

	// Sharded engine: build time at k=4, batch throughput at k=1 and k=4,
	// on the family and index kind it is built for (as reachbench measures
	// it): a DAG with topological locality, where a contiguous-range cut
	// stays small, under TOL. On the uniform random DAG most edges cross
	// shards and k=4 answers a thousand times slower than k=1; under BFL
	// the banded DAG's long positive paths all fall back to traversal.
	banded := gen.BandedDAG(gen.Config{N: shardN, M: 4 * shardN, Seed: subSeed63(rc.seed, "banded")}, shardBand)
	skey := subSeed(rc.seed, "shard-pairs")
	pairs := make([]reach.Pair, shardPairs)
	for i := range pairs {
		s, t := pairAt(skey, uint64(i), shardN)
		pairs[i] = reach.Pair{S: reach.V(s), T: reach.V(t)}
	}
	for _, k := range []int{1, 4} {
		t0 := time.Now()
		sdb, err := reach.NewShardedDB(banded, reach.ShardedConfig{Shards: k, Plain: reach.KindTOL})
		if err != nil {
			return err
		}
		if k == 4 {
			L["shard.build_s_k4"] = time.Since(t0).Seconds()
		}
		us := rc.timeCalls(1, layerDB, func(uint64) { sdb.DB.BatchReachCtx(ctx, pairs) }) / 1e3
		L[fmt.Sprintf("shard.batch_pairs_per_s_k%d", k)] = shardPairs / (us / 1e6)
	}

	// Result cache: a hot set that fits and a cyclic scan that does not.
	db, err := reach.NewDB(in.g, reach.DBConfig{CacheSize: cacheCap})
	if err != nil {
		return err
	}
	scan := func(set uint64) func(i uint64) {
		return func(i uint64) {
			s, t := pairAt(ckey, i%set, in.n)
			db.Reach(reach.V(s), reach.V(t))
		}
	}
	hitShare := func(set uint64, calls uint64) float64 {
		c0, _ := db.CacheStats()
		f := scan(set)
		for i := uint64(0); i < calls; i++ {
			f(i)
		}
		c1, _ := db.CacheStats()
		return float64(c1.Hits-c0.Hits) / float64(calls)
	}
	hitShare(hotSet, hotSet) // fill
	L["qcache.hit_share_fit"] = hitShare(hotSet, 4*hotSet)
	L["qcache.hit_ns"] = rc.timeCalls(callStep, layerDB, scan(hotSet))
	hitShare(spillSet, spillSet) // fill: evicts the hot set, keeps the scan's tail
	L["qcache.hit_share_spill"] = hitShare(spillSet, spillSet)
	L["qcache.miss_ns"] = rc.timeCalls(callStep, layerDB, scan(spillSet))

	// Mapped snapshot: the second boot page-maps what the first one wrote.
	snap := filepath.Join(rc.dir, "layers-small", "index.snap")
	for boot := 0; boot < 2; boot++ {
		c, err := rc.spawn("layers-snap", "-graph", in.path, "-index", "bfl", "-snapshot", snap, "-mmap")
		if err != nil {
			return err
		}
		L["persist.warm_start_s"] = c.bootS
		rc.stopClean(c)
	}

	// Label-constrained routes on a small labeled graph.
	lg := gen.Zipf(gen.ErdosRenyi(gen.Config{N: labeledN, M: labeledM, Seed: subSeed63(rc.seed, "labeled")}),
		6, 1.0, subSeed63(rc.seed, "labels"))
	ldb, err := reach.NewDB(lg, reach.DBConfig{})
	if err != nil {
		return err
	}
	key := subSeed(rc.seed, "labeled-queries")
	for name, alpha := range map[string]string{
		"db.query_lcr_ns": "(" + lg.LabelName(0) + "|" + lg.LabelName(1) + ")*",
		"db.query_rlc_ns": "(" + lg.LabelName(0) + "." + lg.LabelName(1) + ")*",
	} {
		var qerr error
		L[name] = rc.timeCalls(callStep, layerDB, func(i uint64) {
			s, t := pairAt(key, i, labeledN)
			if _, err := ldb.Query(reach.V(s), reach.V(t), alpha); err != nil {
				qerr = err
			}
		})
		if qerr != nil {
			return fmt.Errorf("%s: %w", alpha, qerr)
		}
	}
	return nil
}

// printStacks prints the two layer tables. Each row is a layer's self
// time; the rows sum to the client-side median of the suite's own
// single-connection run, transport being what is left over.
func printStacks(L map[string]float64) {
	dbOnUs := (L["db.reach_neg_ns"] + L["obs.metrics_overhead_ns"]) / 1e3
	point := []stackRow{
		{"server.transport_us (residual)", L["server.transport_us"]},
		{"server handler self", L["server.handler_reach_us"] - dbOnUs},
		{"  of which default telemetry", L["obs.default_telemetry_us"]},
		{"obs.metrics_overhead", L["obs.metrics_overhead_ns"] / 1e3},
		{"db.overhead (db.go self)", L["db.overhead_ns"] / 1e3},
		{"index.probe_neg", L["index.probe_neg_ns"] / 1e3},
	}
	printStack("point-http: GET /v1/reach, one connection, 1M-vertex DAG", L["client.reach_p50_us"], point)
	kernelUs := batchPairs / L["batch.kernel_pairs_per_s"] * 1e6
	batch := []stackRow{
		{"server.transport_batch_us (residual)", L["server.transport_batch_us"]},
		{"batch.decode_us (handler self)", L["batch.decode_us"]},
		{"batch kernel (DB.BatchReachCtx)", kernelUs},
	}
	printStack("batch-http: POST /v1/batch, 1024 pairs, one connection, 100k-vertex DAG", L["client.batch_p50_us"], batch)
}

// stackRow is one line of a layer table; a name that starts with a space
// is a part of the row above it and is left out of the sum.
type stackRow struct {
	name string
	us   float64
}

func printStack(title string, client float64, rows []stackRow) {
	fmt.Printf("layer table — %s\n", title)
	sum := 0.0
	for _, r := range rows {
		if r.name[0] != ' ' {
			sum += r.us
		}
		fmt.Printf("  %-40s %12.3f us  %5.1f %%\n", r.name, r.us, 100*r.us/client)
	}
	fmt.Printf("  %-40s %12.3f us  (rows sum to %.3f)\n", "client-side p50", client, sum)
}

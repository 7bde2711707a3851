package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	reach "repro"
	"repro/internal/gen"
)

// Sizes and rates of the workloads. They are constants of the benchmark,
// not options: two runs are comparable only if they agree on all of them.
const (
	bigN, bigM     = 1_000_000, 4_000_000 // the survey's million-vertex scale
	smallN, smallM = 100_000, 400_000
	openRate       = 5000.0 // req/s of point-http's open-loop phase, sent on one connection
	batchPairs     = 1024   // pairs per /v1/batch request
	mutateOps      = 32     // edge ops per /v1/mutate request
	readBackEvery  = 16     // the writer re-reads every 16th acknowledged add
	restartSample  = 256    // live acknowledged adds checked after kill -9
	coldBoots      = 3      // setup_s is the median of this many cold boots
)

// workload is one traffic mix. why is the reason it exists, in a line;
// BENCHMARK.json repeats it.
type workload struct {
	name string
	why  string
	run  func(rc *runCtx, rep *report) error
}

var workloadList = []workload{
	{name: "point-http", run: runPointHTTP,
		why: "GET /v1/reach on a 1M-vertex DAG, closed loop then open loop at 5000 req/s: server, net/http and default telemetry are ~99 % of a request, the index probe ~1 %"},
	{name: "batch-http", run: runBatchHTTP,
		why: "POST /v1/batch with 1024 pairs on a 100k-vertex DAG, closed loop: per-request HTTP cost is amortised away, JSON decode and DB.BatchReachCtx do the work"},
	{name: "embedded", run: runEmbedded,
		why: "no HTTP: reach.NewDB + DB.Reach from one goroutine on the 1M-vertex DAG, 10 % known-positive pairs: db.go routing, index probe and fallback traversal are the cost"},
	{name: "mixed-rw", run: runMixed,
		why: "1 writer posting /v1/mutate beside C-1 readers on reachserve -wal (100k-vertex DAG): batcher, fsynced WAL, overlay and rebuilds; then kill -9, restart, no acknowledged write lost"},
}

// runCtx is what one invocation runs under.
type runCtx struct {
	seed    uint64
	seconds float64
	trace   bool
	bin     string // the reachserve binary
	dir     string // this run's temp dir, removed when the run ends
	conns   int    // C: connections and goroutines the load comes from
	rec     *spanRec
	// CPUs the servers under test run on while splitCPUs has given the load
	// generator one of its own; nil while the two share them all.
	serverCPUs []int
	split      [2][]int // the generator's and the servers' CPUs of the last split, for the result file

	mu       sync.Mutex
	faults   []string
	children []*child
}

// spawn starts a reachserve child that killChildren will reap if the run
// ends, for whatever reason, while it is still alive.
func (rc *runCtx) spawn(tag string, args ...string) (*child, error) {
	c, err := startChild(rc.bin, rc.dir, tag, rc.serverCPUs, args...)
	if err == nil {
		rc.mu.Lock()
		rc.children = append(rc.children, c)
		rc.mu.Unlock()
	}
	return c, err
}

// splitCPUs gives the load generator the first CPU it may run on and the
// servers spawned until undo is called the others, so that the two never
// compete for a core and the kernel never moves a request's two ends
// between "same CPU" and "across CPUs", which on the reference guest differ
// by ~90 µs a request and flipped every few seconds. It is for point
// requests, where the client is a fifth of the CPU time and the wake-ups
// most of the latency; a workload whose server has work of its own to run
// in parallel (two batches, a rebuild beside the readers) keeps every CPU
// for the server. With one CPU there is nothing to split. The generator's
// GOMAXPROCS follows the CPUs it keeps; the server's is never set.
func (rc *runCtx) splitCPUs() (undo func()) {
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) < 2 {
		return func() {}
	}
	if err := pinProcess(cpus[:1]); err != nil {
		fmt.Printf("WARNING: load generator not pinned: %v\n", err)
		pinProcess(cpus)
		return func() {}
	}
	procs := runtime.GOMAXPROCS(1)
	rc.serverCPUs, rc.split = cpus[1:], [2][]int{cpus[:1], cpus[1:]}
	return func() { // harmless when called twice
		rc.serverCPUs = nil
		runtime.GOMAXPROCS(procs)
		pinProcess(cpus)
	}
}

func (rc *runCtx) killChildren() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, c := range rc.children {
		c.kill()
	}
}

// fault records a reason the run is not correct. The first few are kept
// verbatim; failed operations are counted separately.
func (rc *runCtx) fault(format string, args ...any) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.faults) < 8 {
		rc.faults = append(rc.faults, fmt.Sprintf(format, args...))
	}
}

func (rc *runCtx) dur() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// report is everything one run found. The last stdout line carries the
// part the contract asks for; the whole of it goes to the result file.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Conns     int                `json:"connections"`
	Host      hostMeta           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Faults    []string           `json:"faults,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Phases    map[string]phase   `json:"phases"` // per-window values and spreads
	SetupS    []float64          `json:"setup_s_boots,omitempty"`
	Rebuilds  int                `json:"background_rebuilds,omitempty"` // mixed-rw: rebuilds completed during the run
}

// view is the end-to-end figure of one measurement: throughput from one
// phase, latency from the same or another.
type view struct {
	ops, p50, p99 windowed
}

// count folds a phase's operation counts into the report.
func (rep *report) count(name string, p phase) {
	rep.Phases[name] = p
	rep.Attempted += p.Attempted
	rep.Failed += p.Failed
}

// measure runs the workload's measurement: once for the whole of -seconds
// when untraced, and for the traced run half untraced and half with spans
// recorded, whose throughput ratio is the tracing overhead.
func (rc *runCtx) measure(rep *report, run func(dur time.Duration, rec *spanRec, tag string) view) {
	// Set-up left the filesystem with work to do (the graph file just written,
	// the last run's temp dir just deleted): have it done before the clock
	// starts, or the server's first WAL fsync waits for all of it.
	syscall.Sync()
	defer quietGC()()
	if !rc.trace {
		v := run(rc.dur(), nil, "")
		rep.EndToEnd["ops_per_s"] = v.ops.Median
		rep.EndToEnd["lat_p50_us"] = v.p50.Median
		return
	}
	plain := run(rc.dur()/2, nil, "untraced/")
	traced := run(rc.dur()/2, rc.rec, "traced/")
	rep.PerLayer["obs.trace_overhead_share"] = 1 - traced.ops.Median/plain.ops.Median
	rep.PerLayer["lat_p99_us"] = plain.p99.Median
}

// quietGC turns the load generator's own garbage collector off and returns
// the function that turns it back on and collects. While a phase is being
// measured the generator allocates a few hundred MB at most, and a
// collection in the middle of it would be charged to the system under test
// as latency.
func quietGC() func() {
	old := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(old)
		runtime.GC()
	}
}

// boots is how many cold boots set-up is measured over: the traced run
// reports no set-up time, so it boots once.
func (rc *runCtx) boots() int {
	if rc.trace {
		return 1
	}
	return coldBoots
}

// bootServer cold-boots reachserve on in's graph rc.boots() times, killing
// all but the last, and records the median spawn → ready time as setup_s.
// fresh runs before each boot (mixed-rw resets its WAL in it).
func (rc *runCtx) bootServer(rep *report, in *inputs, fresh func(), extra ...string) (*child, error) {
	args := append([]string{"-graph", in.path, "-index", "bfl"}, extra...)
	var c *child
	for i := 0; i < rc.boots(); i++ {
		if c != nil {
			c.kill()
		}
		if fresh != nil {
			fresh()
		}
		var err error
		if c, err = rc.spawn("serve", args...); err != nil {
			return nil, err
		}
		rep.SetupS = append(rep.SetupS, c.bootS)
	}
	rep.EndToEnd["setup_s"] = median(rep.SetupS)
	return c, nil
}

// adminStats is the part of /admin/stats the benchmark reads.
type adminStats struct {
	Graph struct {
		Vertices int `json:"vertices"`
	} `json:"graph"`
	Indexes map[string]struct {
		Bytes int64
	} `json:"indexes"`
	Mutation *struct {
		Rebuilding bool `json:"rebuilding"`
	} `json:"mutation"`
}

func fetchStats(addr string) (adminStats, error) {
	var st adminStats
	status, body, err := get(addr, "/admin/stats")
	if err != nil {
		return st, err
	}
	if status != 200 {
		return st, fmt.Errorf("/admin/stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

func (st adminStats) bytesPerVertex() float64 {
	var total int64
	for _, ix := range st.Indexes {
		total += ix.Bytes
	}
	return float64(total) / float64(st.Graph.Vertices)
}

// finishServer ends a server workload: index size from /admin/stats, then
// SIGTERM must drain to exit code 0 and the child's stderr must hold no
// logged error or panic.
func (rc *runCtx) finishServer(rep *report, c *child) error {
	st, err := fetchStats(c.addr)
	if err != nil {
		c.kill()
		return err
	}
	rep.EndToEnd["index_bytes_per_vertex"] = st.bytesPerVertex()
	rc.stopClean(c)
	return nil
}

// stopClean ends a child the way an operator would: SIGTERM must drain to
// exit code 0, and its stderr must be clean, or the run is marked incorrect.
func (rc *runCtx) stopClean(c *child) {
	if err := c.terminate(); err != nil {
		rc.fault("%v", err)
	}
	rc.checkStderr(c)
}

// checkStderr marks the run incorrect if the child logged an error, a
// panic or a runtime crash.
func (rc *runCtx) checkStderr(c *child) {
	line, err := stderrFault(c.stderr)
	switch {
	case err != nil:
		rc.fault("reading child stderr: %v", err)
	case line != "":
		rc.fault("child stderr: %s", line)
	}
}

// reachOps returns the operation "GET /v1/reach on the stream's i-th
// pair", one connection per worker, and the function that closes them.
func (rc *runCtx) reachOps(addr string, workers int, st *stream) (opFunc, func()) {
	conns := make([]*conn, workers)
	targets := make([][]byte, workers)
	for w := range conns {
		conns[w] = newConn(addr)
	}
	op := func(w int, i uint64) (int, int) {
		s, t, want := st.draw(i)
		targets[w] = reachTarget(targets[w], s, t)
		got, err := conns[w].reach(targets[w])
		switch {
		case err != nil:
			rc.fault("reach(%d,%d): %v", s, t, err)
			return 1, 1
		case wrong(got, want):
			rc.fault("reach(%d,%d) = %v, traversal says %v", s, t, got, !got)
			return 1, 1
		}
		return 1, 0
	}
	return op, func() {
		for _, c := range conns {
			c.close()
		}
	}
}

// --- point-http --------------------------------------------------------

func runPointHTTP(rc *runCtx, rep *report) error {
	defer rc.splitCPUs()()
	in, err := makeInputs(rc.seed, bigN, bigM, rc.dir)
	if err != nil {
		return err
	}
	c, err := rc.bootServer(rep, in, nil)
	if err != nil {
		return err
	}
	in.g = nil // 100 MB the generator no longer needs
	rc.measure(rep, func(dur time.Duration, rec *spanRec, tag string) view {
		return rc.pointPhases(rep, c.addr, in, dur, rec, tag)
	})
	return rc.finishServer(rep, c)
}

// pointPhases is point-http's measurement: phase A, closed loop on C
// connections, gives throughput; phase B, open loop at openRate timed from
// each request's due time, gives latency. Phase B paces one connection from
// one goroutine: the generator has one CPU, and a second pacer spinning
// towards its own due time on it holds up the first one's response.
func (rc *runCtx) pointPhases(rep *report, addr string, in *inputs, dur time.Duration, rec *spanRec, tag string) view {
	opA, closeA := rc.reachOps(addr, rc.conns, in.uniform("point-closed"))
	a := closedLoop(rc.conns, dur/2, opA, rec, 0)
	closeA()
	rep.count(tag+"closed", a)
	opB, closeB := rc.reachOps(addr, 1, in.uniform("point-open"))
	b := openLoop(1, openRate, dur/2, opB, rec)
	closeB()
	rep.count(tag+"open", b)
	return view{ops: a.OpsPerS, p50: b.P50us, p99: b.P99us}
}

// --- batch-http --------------------------------------------------------

func runBatchHTTP(rc *runCtx, rep *report) error {
	in, err := makeInputs(rc.seed, smallN, smallM, rc.dir)
	if err != nil {
		return err
	}
	c, err := rc.bootServer(rep, in, nil)
	if err != nil {
		return err
	}
	rc.measure(rep, func(dur time.Duration, rec *spanRec, tag string) view {
		op, closeConns := rc.batchOps(c.addr, rc.conns, in.uniform("batch"))
		defer closeConns()
		p := closedLoop(rc.conns, dur, op, rec, 0)
		rep.count(tag+"closed", p)
		return view{ops: p.OpsPerS, p50: p.P50us, p99: p.P99us}
	})
	return rc.finishServer(rep, c)
}

// batchOps returns the operation "POST /v1/batch with pairs
// i·1024 … i·1024+1023 of the stream"; the unit of work is the pair.
func (rc *runCtx) batchOps(addr string, workers int, st *stream) (opFunc, func()) {
	type scratch struct {
		c    *conn
		body []byte
		want [batchPairs]int8
		got  [batchPairs]bool
	}
	ws := make([]*scratch, workers)
	for w := range ws {
		ws[w] = &scratch{c: newConn(addr)}
	}
	target := []byte("/v1/batch")
	op := func(w int, i uint64) (int, int) {
		sc := ws[w]
		sc.body = appendBatchBody(sc.body[:0], batchPairs, func(j int) (s, t uint32) {
			s, t, sc.want[j] = st.draw(i*batchPairs + uint64(j))
			return s, t
		})
		status, body, err := sc.c.do("POST", target, sc.body)
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %s", status, truncate(body, 120))
		}
		var n int
		if err == nil {
			if n, err = batchResults(body, sc.got[:]); err == nil && n != batchPairs {
				err = fmt.Errorf("%d results for %d pairs", n, batchPairs)
			}
		}
		if err != nil {
			rc.fault("batch %d: %v", i, err)
			return batchPairs, batchPairs
		}
		bad := 0
		for j := range sc.got {
			if wrong(sc.got[j], sc.want[j]) {
				rc.fault("batch %d pair %d = %v, traversal says %v", i, j, sc.got[j], !sc.got[j])
				bad++
			}
		}
		return batchPairs, bad
	}
	return op, func() {
		for _, sc := range ws {
			sc.c.close()
		}
	}
}

// --- embedded ----------------------------------------------------------

// embeddedChunk is how many DB.Reach calls share one pair of clock reads:
// a call is a fraction of a microsecond, a clock read is not free.
const embeddedChunk = 64

func runEmbedded(rc *runCtx, rep *report) error {
	in, err := makeInputs(rc.seed, bigN, bigM, rc.dir)
	if err != nil {
		return err
	}
	st := in.withPositives("embedded")
	var db *reach.DB
	for i := 0; i < rc.boots(); i++ {
		db = nil
		runtime.GC()
		t0 := time.Now()
		if db, err = reach.NewDB(in.g, reach.DBConfig{}); err != nil {
			return err
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}
	rep.EndToEnd["setup_s"] = median(rep.SetupS)
	rc.measure(rep, func(dur time.Duration, rec *spanRec, tag string) view {
		p := rc.embeddedLoop(db, st, dur, rec)
		rep.count(tag+"calls", p)
		return view{ops: p.OpsPerS, p50: p.P50us, p99: p.P99us}
	})
	var total int
	for _, s := range db.Stats() {
		total += s.Bytes
	}
	rep.EndToEnd["index_bytes_per_vertex"] = float64(total) / float64(in.g.N())
	return nil
}

// embeddedLoop calls DB.Reach on the stream from one goroutine for dur. A
// latency sample is one chunk's wall time divided by its calls. With rec
// set, every call is a span of its own.
func (rc *runCtx) embeddedLoop(db *reach.DB, st *stream, dur time.Duration, rec *spanRec) phase {
	var t tally
	winLen := windowLen(dur)
	start := time.Now()
	for i := uint64(0); ; i += embeddedChunk {
		t0 := time.Now()
		if t0.Sub(start) >= dur {
			break
		}
		bad := 0
		for j := i; j < i+embeddedChunk; j++ {
			s, tv, want := st.draw(j)
			var c0 time.Time
			if rec != nil {
				c0 = time.Now()
			}
			got, err := db.Reach(reach.V(s), reach.V(tv))
			if rec != nil {
				rec.add(0, layerDB, 0, j, 1, c0, time.Now())
			}
			if err != nil || wrong(got, want) {
				rc.fault("DB.Reach(%d,%d) = %v, %v; want %d", s, tv, got, err, want)
				bad++
			}
		}
		t1 := time.Now()
		t.record(int(t1.Sub(start)/winLen), embeddedChunk, bad, t1.Sub(t0)/embeddedChunk)
	}
	return merge([]tally{t}, winLen)
}

// --- mixed-rw ----------------------------------------------------------

// runMixed is the read-write workload: one writer connection posting
// mutateOps-op /v1/mutate batches beside C−1 reader connections on
// /v1/reach, closed loop, against reachserve -wal (fsync per group commit,
// default rebuild threshold). The update script deletes existing edges and
// inserts fresh ones in equal shares, so the edge count stays put while the
// overlay fills to the rebuild threshold again and again. The end-to-end
// figures are the writer's: acknowledged edge ops per second and the latency
// of a /v1/mutate request. The readers' are in the result file and, from the
// layer suite's short run of the same scenario, among the per-layer metrics:
// they do not repeat well enough to gate on. The run ends with kill -9, a
// restart on the same WAL, and a check that acknowledged writes survived. At
// the contract's run length the run sees a handful of background rebuilds,
// not the tens a longer one would; the count is in the result file.
func runMixed(rc *runCtx, rep *report) error {
	in, err := makeInputs(rc.seed, smallN, smallM, rc.dir)
	if err != nil {
		return err
	}
	wal := filepath.Join(rc.dir, "mutations.wal")
	c, err := rc.bootServer(rep, in, func() { os.Remove(wal) }, "-wal", wal)
	if err != nil {
		return err
	}
	wr := newWriter(rc, c.addr, in)
	defer wr.c.close()
	rc.measure(rep, func(dur time.Duration, rec *spanRec, tag string) view {
		readers := max(rc.conns-1, 1)
		readOp, closeReaders := rc.reachOps(c.addr, readers, in.uniform("mixed-reads"))
		defer closeReaders()
		var reads, writes phase
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = closedLoop(1, dur, wr.op, rec, readers)
		}()
		reads = closedLoop(readers, dur, noVerify(readOp), rec, 0)
		wg.Wait()
		rep.count(tag+"reads", reads)
		rep.count(tag+"writes", writes)
		return view{ops: writes.OpsPerS, p50: writes.P50us, p99: writes.P99us}
	})

	st, err := fetchStats(c.addr)
	if err != nil {
		c.kill()
		return err
	}
	rep.EndToEnd["index_bytes_per_vertex"] = st.bytesPerVertex()
	m, err := c.scrape()
	if err != nil {
		c.kill()
		return err
	}
	rep.Rebuilds = int(m["reach_rebuilds_total"])

	// kill -9, restart on the same WAL: every acknowledged add that no
	// later acknowledged op removed must still answer reachable.
	c.kill()
	c2, err := rc.spawn("restart", "-graph", in.path, "-index", "bfl", "-wal", wal)
	if err != nil {
		return err
	}
	p := wr.checkSurvivors(c2.addr)
	rep.count("restart-check", p)
	// Killed, not drained: the replayed WAL starts a rebuild that folds tens
	// of thousands of removals, and a SIGTERM drain waits ~14 s for it. The
	// traced run's layer suite drains a -wal server after a shorter run.
	c2.kill()
	rc.checkStderr(c)
	rc.checkStderr(c2)
	return nil
}

// noVerify shifts a reader's stream off the verification slots: while the
// writer changes the graph, the static traversal answers no longer hold,
// so mixed-rw checks reads for success only and leaves answer
// checking to the writer's read-backs and the restart check.
func noVerify(op opFunc) opFunc {
	return func(w int, i uint64) (int, int) {
		if i%verifyEvery == 0 {
			i += 1<<40 + 1
		}
		return op(w, i)
	}
}

// writer is the single mutating client of mixed-rw. It walks
// the update script, and tracks which acknowledged adds are still live.
type writer struct {
	rc     *runCtx
	c      *conn
	script []gen.UpdateOp
	next   int
	body   []byte
	target []byte
	live   map[[2]uint32]struct{} // acknowledged adds no later op removed
	adds   int                    // acknowledged adds so far
}

func newWriter(rc *runCtx, addr string, in *inputs) *writer {
	// Enough script for the whole run at several times the rate a single
	// writer reaches; op wraps around rather than run dry.
	cnt := int(rc.seconds*40000) + 4096
	return &writer{
		rc:     rc,
		c:      newConn(addr),
		script: gen.UpdateScript(in.g, cnt, true, subSeed63(in.seed, "updates")),
		live:   make(map[[2]uint32]struct{}),
	}
}

// op posts the next mutateOps script entries as one /v1/mutate request;
// the unit of work is the acknowledged edge op. After every
// readBackEvery-th acknowledged add it reads that edge back on the same
// connection: an acknowledged write must be visible.
func (wr *writer) op(_ int, _ uint64) (int, int) {
	if wr.next+mutateOps > len(wr.script) {
		wr.rc.fault("update script exhausted after %d ops", wr.next)
		return mutateOps, mutateOps
	}
	ops := wr.script[wr.next : wr.next+mutateOps]
	wr.next += mutateOps
	b := append(wr.body[:0], `{"ops":[`...)
	for j, o := range ops {
		if j > 0 {
			b = append(b, ',')
		}
		if o.Insert {
			b = append(b, `{"op":"add","s":`...)
		} else {
			b = append(b, `{"op":"remove","s":`...)
		}
		b = strconv.AppendUint(b, uint64(o.Edge.From), 10)
		b = append(b, `,"t":`...)
		b = strconv.AppendUint(b, uint64(o.Edge.To), 10)
		b = append(b, '}')
	}
	wr.body = append(b, "]}"...)
	status, body, err := wr.c.do("POST", []byte("/v1/mutate"), wr.body)
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d: %s", status, truncate(body, 120))
	}
	if err != nil {
		wr.rc.fault("mutate: %v", err)
		return mutateOps, mutateOps
	}
	bad := 0
	var readBack [][2]uint32
	for _, o := range ops {
		key := [2]uint32{uint32(o.Edge.From), uint32(o.Edge.To)}
		if !o.Insert {
			delete(wr.live, key)
			continue
		}
		wr.live[key] = struct{}{}
		if wr.adds++; wr.adds%readBackEvery == 0 {
			readBack = append(readBack, key)
		}
	}
	for _, key := range readBack {
		if _, ok := wr.live[key]; !ok {
			continue // removed again later in the same batch
		}
		wr.target = reachTarget(wr.target, key[0], key[1])
		if got, err := wr.c.reach(wr.target); err != nil || !got {
			wr.rc.fault("acknowledged add %d->%d reads back %v, %v", key[0], key[1], got, err)
			bad++
		}
	}
	return mutateOps, bad
}

// checkSurvivors asks the restarted server for a seeded sample of the live
// acknowledged adds; each must be reachable.
func (wr *writer) checkSurvivors(addr string) phase {
	edges := make([][2]uint32, 0, len(wr.live))
	for e := range wr.live {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	c := newConn(addr)
	defer c.close()
	var p phase
	key := subSeed(wr.rc.seed, "survivors")
	var target []byte
	for i := uint64(0); i < restartSample && len(edges) > 0; i++ {
		e := edges[mix64(key+i)%uint64(len(edges))]
		target = reachTarget(target, e[0], e[1])
		p.Attempted++
		if got, err := c.reach(target); err != nil || !got {
			wr.rc.fault("after kill -9: acknowledged add %d->%d answers %v, %v", e[0], e[1], got, err)
			p.Failed++
		}
	}
	return p
}

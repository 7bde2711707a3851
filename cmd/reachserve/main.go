// Command reachserve serves reachability queries over HTTP/JSON (see
// internal/server and DESIGN.md, "Serving").
//
// Usage:
//
//	reachserve -graph g.txt                         # serve on :8080
//	reachserve -demo -addr 127.0.0.1:0 -addrfile a  # demo graph, random port
//	reachserve -graph g.txt -snapshot g.idx         # warm-start when g.idx exists
//	reachserve -graph g.txt -snapshot g.idx -mmap   # same, page-mapping the snapshot
//	reachserve -graph g.txt -wal g.wal              # writable: POST /v1/mutate
//	reachserve -graph g.txt -shards 4               # sharded plain engine
//	reachserve -graph g.txt -record w.rec           # capture the workload
//
// Endpoints: /v1/reach?s=&t=, /v1/query?s=&t=&alpha=, /v1/allowed?s=&t=&labels=,
// POST /v1/batch, /v1/path?s=&t=[&alpha=], POST /v1/mutate (with -wal),
// /healthz, /readyz, /metrics (Prometheus text exposition 0.0.4, the only
// form metrics are served in), /debug/traces, /debug/pprof/ (with -pprof),
// /admin/stats, /admin/shards (with -shards), POST /admin/reload.
//
// -shards k partitions the condensation DAG into k contiguous
// topological ranges, builds one plain index per shard in parallel, and
// answers cross-shard queries through a 2-hop summary over the boundary
// vertices; answers are exact for every k. With -snapshot, each shard
// warm-starts from <snapshot>.shard<i>. The sharded engine is handed to
// the DB pre-built, and a pre-built engine has nothing that can rebuild
// it: -shards refuses -wal (reach.ErrPrebuiltEngine).
//
// With -snapshot the graph's CSR arrays are also persisted to
// <snapshot>.graph, so later boots page-map the adjacency instead of
// re-parsing the edge-list text (the snapshot is ignored when older than
// the graph file).
//
// -wal makes the DB writable: edge mutations group-commit to the named
// write-ahead log before acknowledging, queries stay exact via a delta
// overlay, and a restart on the same -wal (and -graph/-snapshot) replays
// the log so acknowledged writes survive crashes. -cache works under
// -wal: every commit advances the serving epoch the cache keys carry.
// /admin/reload is disabled under -wal — a reload is a second DB, and a
// second DB cannot replay the WAL the first one is writing.
//
// Logs are structured (log/slog); -log-format json switches the sink to
// JSON lines, -log-level sets the floor. -record captures the query
// workload to a file replayable with `reachcli replay`. Choosing the index
// is offline: `reachcli advise -graph g.txt -trace w.rec` measures the
// candidate kinds on that capture, and a restart with -index <kind>
// serves the pick. -index takes the kinds Table 1 marks as serving; any
// other exits 2 naming them.
//
// SIGTERM or SIGINT drains gracefully: /readyz flips to 503, in-flight
// requests finish, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	reach "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file (for port-0 scripting)")
	graphPath := flag.String("graph", "", "graph file (edge-list exchange format)")
	demo := flag.Bool("demo", false, "serve the paper's Figure 1(b) demo graph instead of -graph")
	indexKind := flag.String("index", "bfl", "plain index kind")
	lcrKind := flag.String("lcr", "p2h", "LCR index kind for labeled graphs")
	k := flag.Int("k", 0, "per-technique budget; 0 = default")
	bits := flag.Int("bits", 0, "Bloom width for DBL and LCR-Bloom; BFL's widths are fixed by its 64-byte record (0 = default)")
	maxseq := flag.Int("maxseq", 0, "RLC max concatenation length κ; 0 = default")
	workers := flag.Int("workers", 0, "build worker cap; 0 = GOMAXPROCS")
	cache := flag.Int("cache", 0, "query-result cache entries; 0 disables (under -wal a commit advances the epoch its keys carry, so no stale answer is served)")
	metrics := flag.Bool("metrics", true, "enable the observability layer")
	degraded := flag.Bool("degraded", false, "keep serving when an optional index build fails")
	snapshot := flag.String("snapshot", "", "plain-index snapshot file: load when present, write after a fresh build (bfl/pll/dl kinds)")
	mmapSnap := flag.Bool("mmap", false, "page-map the snapshot at load instead of reading it; the file layout is the same")
	shards := flag.Int("shards", 0, "partition the DAG into this many shards with per-shard indexes and a boundary summary; 0 disables (a pre-built engine: refuses -wal)")
	walPath := flag.String("wal", "", "write-ahead log file; enables POST /v1/mutate and replays the log on start (unlabeled graphs, disables /admin/reload)")
	walFsync := flag.String("wal-fsync", "always", "WAL durability: always (fsync before acking each group commit) or never (OS page cache)")
	mutateBatch := flag.Int("mutate-batch", 0, "max mutation ops per group commit; 0 = default")
	rebuildThreshold := flag.Int("rebuild-threshold", 0, "overlay edges that trigger a background reindex; 0 = default, negative disables")
	maxInFlight := flag.Int("max-inflight", 256, "max concurrently executing query requests")
	maxQueue := flag.Int("max-queue", 0, "max queued query requests; 0 = same as -max-inflight")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "max time a request waits for an admission slot")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "deadline of a /v1/query, /v1/batch or /v1/mutate request (the routes whose work polls it); negative disables")
	buildTimeout := flag.Duration("build-timeout", 0, "abort index construction after this long; 0 = no limit")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight requests on shutdown")
	traceBuf := flag.Int("trace-buffer", 256, "recent-trace ring size for /debug/traces; 0 disables tracing")
	slowQuery := flag.Duration("slow-query", 250*time.Millisecond, "log and retain traces of requests slower than this; 0 disables the slow log")
	record := flag.String("record", "", "capture the query workload to this file (replay with `reachcli replay`)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	accessLog := flag.Bool("access-log", true, "log one structured line per request")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()
	if row, _ := core.Plain(*indexKind); !row.Serves {
		fmt.Fprintf(os.Stderr, "reachserve: -index %q is not a serving kind (serving kinds: %s)\n", *indexKind,
			strings.Join(core.KindsWhere(func(r core.PlainKind) bool { return r.Serves }), ", "))
		os.Exit(2)
	}

	logger, err := newLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachserve:", err)
		os.Exit(1)
	}
	// Legacy bridge for call sites (and server internals) still writing
	// through *log.Logger; lines land in the same structured sink.
	lg := slog.NewLogLogger(logger.Handler(), slog.LevelInfo)
	if *demo == (*graphPath != "") {
		lg.Fatal("need exactly one of -graph or -demo")
	}
	if *shards > 0 && *walPath != "" {
		// NewShardedDB takes no Mutation, so the DB's own check never
		// sees the pair; the refusal and its reason are the same.
		lg.Fatalf("-shards with -wal: %v", reach.ErrPrebuiltEngine)
	}

	var tracer *obs.Tracer
	if *traceBuf > 0 {
		tracer = obs.NewTracer(*traceBuf, *slowQuery)
	}

	var (
		recorder *reach.WorkloadRecorder
		recFile  *os.File
	)
	if *record != "" {
		recFile, err = os.Create(*record)
		if err != nil {
			lg.Fatalf("record: %v", err)
		}
		recorder = reach.NewWorkloadRecorder(recFile)
		logger.Info("workload capture enabled", "file", *record)
	}

	cfg := reach.DBConfig{
		Plain:          reach.Kind(*indexKind),
		LCR:            reach.LCRKind(*lcrKind),
		Options:        reach.Options{K: *k, Bits: *bits, Workers: *workers, MaxSeq: *maxseq},
		Metrics:        *metrics,
		Degraded:       *degraded,
		RecordWorkload: recorder,
		CacheSize:      max(*cache, 0),
	}
	if *walPath != "" {
		fsync, err := parseFsync(*walFsync)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		cfg.Mutation = &reach.MutationConfig{
			WALPath:          *walPath,
			Fsync:            fsync,
			BatchOps:         *mutateBatch,
			RebuildThreshold: *rebuildThreshold,
		}
	}

	buildDB := func(ctx context.Context) (*reach.DB, error) {
		return openDB(ctx, *graphPath, *demo, *snapshot, *mmapSnap, *shards, cfg, lg)
	}

	ctx := context.Background()
	if *buildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *buildTimeout)
		defer cancel()
	}
	start := time.Now()
	db, err := buildDB(ctx)
	if err != nil {
		lg.Fatalf("build: %v", err)
	}
	g := db.Graph()
	logger.Info("build complete",
		"vertices", g.N(), "edges", g.M(), "labels", g.Labels(),
		"index", *indexKind, "dur", time.Since(start).Round(time.Millisecond))

	scfg := server.Config{
		DB:             db,
		Rebuild:        buildDB,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		RequestTimeout: *reqTimeout,
		ReloadTimeout:  *buildTimeout,
		Log:            lg,
		Tracer:         tracer,
		EnablePprof:    *pprofOn,
	}
	if *walPath != "" {
		// A reload is a whole second DB built from the graph file: it
		// would discard every mutation the WAL has acknowledged, and it
		// cannot replay a WAL the serving DB still writes.
		scfg.Rebuild = nil
		logger.Info("mutation enabled; /admin/reload disabled", "wal", *walPath, "fsync", *walFsync)
	}
	if *accessLog {
		scfg.AccessLog = logger
	}
	srv, err := server.New(scfg)
	if err != nil {
		lg.Fatalf("server: %v", err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		lg.Fatalf("listen: %v", err)
	}
	logger.Info("listening", "addr", l.Addr().String())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()+"\n"), 0o644); err != nil {
			lg.Fatalf("addrfile: %v", err)
		}
	}

	// Serve until SIGTERM/SIGINT, then drain: the signal flips /readyz,
	// Shutdown closes the listener and waits for in-flight requests.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String())
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			lg.Fatalf("drain: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			lg.Fatalf("serve: %v", err)
		}
		logger.Info("drained cleanly", "completed_during_drain", srv.Metrics().Drained.Load())
		// Close the DB after the drain so no in-flight mutation loses its
		// group commit: Close flushes the batcher, syncs the WAL, and
		// stops the background reindexer. A WAL that cannot be closed
		// cleanly is a hard error — the operator must know before
		// trusting the file for the next start.
		if err := srv.DB().Close(); err != nil {
			lg.Fatalf("close: %v", err)
		}
		if recorder != nil {
			// Close after the drain so every completed request's record is
			// flushed; a capture that cannot be flushed is a hard error —
			// silently truncated workloads poison downstream replay.
			n := recorder.Count()
			if err := recorder.Close(); err != nil {
				lg.Fatalf("record: %v", err)
			}
			if err := recFile.Close(); err != nil {
				lg.Fatalf("record: %v", err)
			}
			logger.Info("workload capture written", "file", *record, "records", n)
		}
	case err := <-errc:
		lg.Fatalf("serve: %v", err)
	}
}

// parseFsync maps the -wal-fsync flag onto reach.FsyncMode.
func parseFsync(s string) (reach.FsyncMode, error) {
	switch s {
	case "always":
		return reach.FsyncAlways, nil
	case "never":
		return reach.FsyncNever, nil
	}
	return 0, fmt.Errorf("bad -wal-fsync %q (want always or never)", s)
}

// newLogger builds the process logger: structured lines to w, text or
// JSON, at the requested minimum level.
func newLogger(w *os.File, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// openDB loads the graph and constructs the DB, warm-starting the plain
// index from snapPath when that file exists and writing a fresh snapshot
// there when it does not. Reload paths re-enter here, so editing the
// graph file and POSTing /admin/reload picks the new graph up; a stale
// snapshot that no longer matches the graph fails the build with a typed
// error rather than serving wrong answers.
func openDB(ctx context.Context, graphPath string, demo bool, snapPath string, mmapSnap bool, shards int, cfg reach.DBConfig, lg *log.Logger) (*reach.DB, error) {
	var g *reach.Graph
	if demo {
		g = reach.Fig1Labeled()
	} else {
		var err error
		g, err = loadGraph(graphPath, snapPath, lg)
		if err != nil {
			return nil, err
		}
	}

	if shards > 0 {
		sdb, err := reach.NewShardedDBCtx(ctx, g, reach.ShardedConfig{
			Shards:         shards,
			Plain:          cfg.Plain,
			Options:        cfg.Options,
			Metrics:        cfg.Metrics,
			CacheSize:      cfg.CacheSize,
			RecordWorkload: cfg.RecordWorkload,
			SnapshotPrefix: snapPath,
			Mapped:         mmapSnap,
		})
		if err != nil {
			return nil, err
		}
		if snapPath != "" {
			lg.Printf("sharded plain engine up: k=%d, per-shard snapshots at %s.shard<i>", shards, snapPath)
		} else {
			lg.Printf("sharded plain engine up: k=%d", shards)
		}
		return sdb.DB, nil
	}

	warm := false
	if snapPath != "" {
		if f, err := os.Open(snapPath); err == nil {
			if mmapSnap {
				// Mapped cold start: hand the path through so the DB
				// page-maps the file instead of reading it.
				f.Close()
				cfg.PlainSnapshotMapped = snapPath
			} else {
				cfg.PlainSnapshot = f
				defer f.Close()
			}
			warm = true
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("snapshot %s: %w", snapPath, err)
		}
	}
	db, err := reach.NewDBCtx(ctx, g, cfg)
	if err != nil {
		if warm {
			return nil, fmt.Errorf("warm-start from %s: %w (delete the snapshot to rebuild)", snapPath, err)
		}
		return nil, err
	}
	if warm {
		if mmapSnap {
			lg.Printf("warm-started plain index from %s (page-mapped)", snapPath)
		} else {
			lg.Printf("warm-started plain index from %s", snapPath)
		}
	} else if snapPath != "" {
		if err := writeSnapshot(snapPath, cfg.Plain, db); err != nil {
			lg.Printf("snapshot save failed (serving anyway): %v", err)
		} else {
			lg.Printf("saved plain-index snapshot to %s", snapPath)
		}
	}
	return db, nil
}

// loadGraph reads the graph, preferring the page-mapped CSR snapshot at
// <snapPath>.graph over re-parsing the edge-list text. The snapshot is
// skipped when it is older than the graph file (an edited graph plus
// /admin/reload must win) and rewritten after any successful edge-list
// read, so the first boot pays the parse and later boots map it.
func loadGraph(graphPath, snapPath string, lg *log.Logger) (*reach.Graph, error) {
	gsnap := ""
	if snapPath != "" {
		gsnap = snapPath + ".graph"
		if fresh, err := snapshotFresh(gsnap, graphPath); err == nil && fresh {
			if g, err := reach.LoadGraphSnapshot(gsnap); err == nil {
				lg.Printf("warm-started graph from %s (page-mapped CSR)", gsnap)
				return g, nil
			} else {
				lg.Printf("graph snapshot %s unusable, re-reading edge list: %v", gsnap, err)
			}
		}
	}
	f, err := os.Open(graphPath)
	if err != nil {
		return nil, err
	}
	g, perr := reach.ReadGraph(f)
	f.Close()
	if perr != nil {
		return nil, fmt.Errorf("parse %s: %w", graphPath, perr)
	}
	if gsnap != "" {
		if err := writeGraphSnapshot(gsnap, g); err != nil {
			lg.Printf("graph snapshot save failed (serving anyway): %v", err)
		} else {
			lg.Printf("saved graph CSR snapshot to %s", gsnap)
		}
	}
	return g, nil
}

// snapshotFresh reports whether the snapshot exists and is at least as
// new as the source it was derived from.
func snapshotFresh(snap, source string) (bool, error) {
	si, err := os.Stat(snap)
	if err != nil {
		return false, err
	}
	gi, err := os.Stat(source)
	if err != nil {
		return false, err
	}
	return !si.ModTime().Before(gi.ModTime()), nil
}

// writeGraphSnapshot persists g's CSR arrays atomically (temp + rename).
func writeGraphSnapshot(path string, g *reach.Graph) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".graphsnap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := g.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeSnapshot persists the DB's plain index atomically: write to a
// temp file in the same directory, fsync-free rename over the target, so
// a crash mid-write never leaves a torn snapshot for the next start.
func writeSnapshot(path string, kind reach.Kind, db *reach.DB) error {
	if kind == "" {
		kind = reach.KindBFL
	}
	ix, ok := db.PlainIndex(kind)
	if !ok {
		return fmt.Errorf("no %s index built", kind)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := reach.SaveIndex(tmp, ix); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

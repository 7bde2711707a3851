// Package server is the network serving subsystem over *reach.DB: an
// HTTP/JSON API (cmd/reachserve is the binary) that composes the
// library's serving-layer pieces into something an operator can run —
//
//   - query endpoints /v1/reach, /v1/query, /v1/allowed, /v1/batch and
//     /v1/path, threaded through the DB's context-aware entry points so
//     per-request deadlines and client disconnects cancel work;
//   - a mutation endpoint POST /v1/mutate (DBs started with a WAL —
//     see DBConfig.Mutation and reachserve's -wal): edge add/remove
//     batches group-commit durably before acknowledging, and queries
//     answer exactly from the frozen index plus the live delta overlay;
//   - typed errors mapped to status codes by statusCode (caller
//     errors → 400, deadline → 504, contained index panics → 500 —
//     degraded-mode DBs keep answering 200, index-free);
//   - a semaphore admission controller with a bounded wait queue, so a
//     burst beyond MaxInFlight+MaxQueue is turned away with 429 and
//     Retry-After instead of blowing the scratch pools;
//   - graceful drain: Shutdown flips /readyz to 503, stops accepting,
//     and finishes every in-flight request under the caller's deadline;
//   - atomic hot-swap reload: /admin/reload rebuilds a DB in the
//     background (Config.Rebuild, typically NewDBCtx over a re-read
//     graph file), swaps it behind an atomic pointer and closes the one
//     it replaced — requests pin the DB once at admission, so traffic
//     never observes a half-swapped state and zero requests fail across
//     a swap;
//   - ops surfaces /healthz, /readyz, /metrics (Prometheus text
//     exposition 0.0.4, the one form every metric leaves the process in)
//     and /admin/stats;
//   - per-request tracing, switched on by Config.Tracer alone: the trace
//     rides the request context into the DB, which appends its phases
//     to it, and GET /debug/traces serves the finished ones.
//
// See DESIGN.md ("Serving") for the architecture and OBSERVABILITY.md
// for the server counters.
package server

import (
	"context"
	"errors"
	"log"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	reach "repro"
	"repro/internal/obs"
)

// Config configures a Server. The zero value of every field except DB is
// usable; New applies the documented defaults.
type Config struct {
	// DB is the database the server fronts. Required.
	DB *reach.DB
	// Rebuild constructs a replacement DB for /admin/reload (typically
	// reach.NewDBCtx over a re-read graph file). Nil disables reload.
	Rebuild func(ctx context.Context) (*reach.DB, error)
	// MaxInFlight bounds concurrently executing query requests; excess
	// requests wait in the bounded queue. Default 256.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; a request
	// arriving with the queue full is rejected immediately with 429.
	// Default MaxInFlight. Negative means no queue (reject when busy).
	MaxQueue int
	// QueueWait is how long a queued request waits for a slot before
	// giving up with 429. Default 100ms.
	QueueWait time.Duration
	// RetryAfter is the Retry-After hint attached to 429 responses.
	// Default 1s (rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// RequestTimeout is the deadline of a /v1/query, /v1/batch or
	// /v1/mutate request, threaded through the DB's *Ctx entry points
	// that poll it. /v1/reach (which checks its context only at entry),
	// /v1/path and /v1/allowed carry none. Default 10s; negative
	// disables.
	RequestTimeout time.Duration
	// ReloadTimeout bounds one /admin/reload rebuild. Default 0: no
	// limit. The rebuild runs detached from the admin request's context,
	// so a dropped admin connection never aborts a rebuild midway.
	ReloadTimeout time.Duration
	// MaxBatch caps the pairs accepted by one /v1/batch request
	// (oversized requests get 413). Default 16384.
	MaxBatch int
	// Log receives serving-lifecycle lines (reloads, drain). Default
	// log.Default().
	Log *log.Logger
	// Tracer, when non-nil, turns on per-request tracing for the /v1/*
	// query endpoints — the one tracing switch: each request gets an
	// obs.Trace threaded through its context, the DB appends its phase
	// timings to it (a DB has no tracing setting of its own), finished
	// traces feed the Tracer's ring buffers, and GET /debug/traces serves
	// the recent/slow rings as JSON.
	Tracer *obs.Tracer
	// AccessLog, when non-nil, receives one structured line per request
	// (method, path, status, latency, bytes, trace ID, admission wait).
	// Requests over the Tracer's slow threshold log at Warn.
	AccessLog *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints can stall the process (e.g. a 30s CPU
	// profile) and belong behind an operator's explicit opt-in.
	EnablePprof bool
}

func (cfg *Config) defaults() {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = cfg.MaxInFlight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 100 * time.Millisecond
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	switch {
	case cfg.RequestTimeout == 0:
		cfg.RequestTimeout = 10 * time.Second
	case cfg.RequestTimeout < 0:
		cfg.RequestTimeout = 0
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16384
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
}

// ErrReloadInProgress reports a /admin/reload that found another reload
// still rebuilding; the caller should retry after the current one lands.
var ErrReloadInProgress = errors.New("server: reload already in progress")

// Server serves reachability queries over HTTP. Create with New, serve
// with Serve (or mount Handler), stop with Shutdown.
type Server struct {
	cfg     Config
	db      atomic.Pointer[reach.DB]
	adm     *admission
	metrics *obs.ServerMetrics
	handler http.Handler
	httpSrv *http.Server

	draining  atomic.Bool
	reloading atomic.Bool

	// testHookAdmitted, when non-nil, runs after a query request clears
	// admission and before it executes — the test suite's seam for
	// holding requests in flight deterministically.
	testHookAdmitted func(*http.Request)
}

// New builds a Server over cfg.DB.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg.defaults()
	s := &Server{
		cfg:     cfg,
		metrics: &obs.ServerMetrics{},
		adm: &admission{
			slots:   make(chan struct{}, cfg.MaxInFlight),
			waiters: make(chan struct{}, cfg.MaxQueue),
			wait:    cfg.QueueWait,
		},
	}
	s.db.Store(cfg.DB)
	s.adm.metrics = s.metrics
	s.handler = s.routes()
	// The observe middleware costs a context allocation per request, so
	// it is only installed when something consumes what it produces.
	if cfg.Tracer != nil || cfg.AccessLog != nil {
		s.handler = s.observe(s.handler)
	}
	s.httpSrv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s, nil
}

// DB returns the currently serving database. Handlers pin it once per
// request, so a concurrent reload never swaps a DB out from under a
// running query (the old DB is immutable and stays valid until its last
// request returns).
func (s *Server) DB() *reach.DB { return s.db.Load() }

// Metrics returns the server's admission/lifecycle counters.
func (s *Server) Metrics() *obs.ServerMetrics { return s.metrics }

// Handler returns the server's HTTP handler, for mounting under a
// caller-owned http.Server or test harness.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on l until Shutdown. Like net/http, it
// returns http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(l net.Listener) error { return s.httpSrv.Serve(l) }

// Shutdown drains the server: /readyz flips to 503 (so load balancers
// stop sending), listeners close, and every in-flight request runs to
// completion — zero in-flight requests are dropped — unless ctx expires
// first, in which case Shutdown returns ctx.Err with requests still
// outstanding.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cfg.Log.Printf("draining (in-flight=%d queued=%d)",
		s.metrics.InFlight.Load(), s.metrics.Queued.Load())
	return s.httpSrv.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Reload rebuilds the DB via Config.Rebuild and atomically swaps it in.
// Requests running against the old DB finish there; requests admitted
// after the swap see the new DB. The replaced DB is then closed, which
// stops its mutation engine (batcher, reindexer, WAL) and nothing else —
// queries in flight on it keep working; a Close
// that fails is logged and counted in server/reload_errors, the reload
// itself has succeeded. At most one reload runs at a time
// (ErrReloadInProgress otherwise); a failed rebuild leaves the old DB
// serving and counts server/reload_errors.
func (s *Server) Reload(ctx context.Context) error {
	if s.cfg.Rebuild == nil {
		return errors.New("server: no rebuild source configured")
	}
	if !s.reloading.CompareAndSwap(false, true) {
		return ErrReloadInProgress
	}
	defer s.reloading.Store(false)
	start := time.Now()
	db, err := s.cfg.Rebuild(ctx)
	if err == nil && db == nil {
		err = errors.New("server: rebuild returned a nil DB")
	}
	if err != nil {
		s.metrics.ReloadErrors.Inc()
		s.cfg.Log.Printf("reload failed after %v: %v", time.Since(start).Round(time.Millisecond), err)
		return err
	}
	if old := s.db.Swap(db); old != db {
		if err := old.Close(); err != nil {
			s.metrics.ReloadErrors.Inc()
			s.cfg.Log.Printf("reload: closing the replaced DB: %v", err)
		}
	}
	s.metrics.Reloads.Inc()
	s.cfg.Log.Printf("reload complete in %v (%d vertices, %d edges)",
		time.Since(start).Round(time.Millisecond), db.Graph().N(), db.Graph().M())
	return nil
}

// reloadCtx derives the context one reload runs under: detached from the
// admin request (a dropped connection must not abort a build midway),
// bounded by ReloadTimeout when configured.
func (s *Server) reloadCtx() (context.Context, context.CancelFunc) {
	if s.cfg.ReloadTimeout > 0 {
		return context.WithTimeout(context.Background(), s.cfg.ReloadTimeout)
	}
	return context.Background(), func() {}
}

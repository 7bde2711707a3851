package server

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// Request-scoped observability: the observe middleware wraps the whole
// route table once (only installed when tracing or access logging is
// configured, so the plain server pays nothing) and owns the per-request
// lifecycle —
//
//   - tracing: query requests (/v1/*) get an obs.Trace carrying the
//     caller's X-Request-Id (generated when absent or not 1–128
//     bytes of visible ASCII, always echoed back on the response),
//     threaded through the request context so the
//     admission controller and the DB's query paths append phase
//     timings; finished traces land in the Tracer's ring buffers,
//     served at /debug/traces;
//   - access logging: one structured line per request — method, path,
//     status, latency, response bytes, trace ID, admission wait — at
//     Info, escalated to Warn with msg "slow request" when the trace
//     crossed the Tracer's slow threshold.
//
// The admission wait is measured inside admit (the only place that
// knows it) and handed back through the per-request reqState.

// reqState is the middleware's per-request scratch, reachable from inner
// handlers via the request context.
type reqState struct {
	trace *obs.Trace
	// admissionWait is how long the request spent acquiring an admission
	// slot (set by admit; ~0 when a slot was free).
	admissionWait time.Duration
}

type reqStateKey struct{}

// stateFrom returns the request's reqState, nil when the observe
// middleware is not installed.
func stateFrom(ctx context.Context) *reqState {
	st, _ := ctx.Value(reqStateKey{}).(*reqState)
	return st
}

// requestIDHeader carries the request ID in both directions: accepted
// from the client for cross-service propagation, echoed on the response
// so callers can quote it when reporting a slow or failed request.
const requestIDHeader = "X-Request-Id"

// observe wraps next with per-request tracing and access logging.
func (s *Server) observe(next http.Handler) http.Handler {
	tracer := s.cfg.Tracer
	accessLog := s.cfg.AccessLog
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		st := &reqState{}
		ctx := context.WithValue(r.Context(), reqStateKey{}, st)
		// Traces cover the query surface; ops scrapes (/metrics,
		// /healthz, ...) would only churn the ring.
		if tracer != nil && strings.HasPrefix(r.URL.Path, "/v1/") {
			st.trace = tracer.Start(r.Header.Get(requestIDHeader))
			st.trace.Method = r.Method
			st.trace.Path = r.URL.Path
			w.Header().Set(requestIDHeader, st.trace.ID)
			ctx = obs.WithTrace(ctx, st.trace)
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))

		dur := time.Since(t0)
		status := sw.Status()
		var traceID string
		slow := false
		if st.trace != nil {
			st.trace.Status = status
			traceID = st.trace.ID
			slow = tracer.Finish(st.trace)
			st.trace = nil
		}
		if accessLog == nil {
			return
		}
		msg, level := "request", slog.LevelInfo
		if slow {
			msg, level = "slow request", slog.LevelWarn
		}
		h := accessLog.Handler()
		if !h.Enabled(r.Context(), level) {
			return
		}
		// One record with pc 0 — the access line has no use for a call
		// site — and its attrs in a fixed array, straight to the handler
		// rather than through Logger.LogAttrs.
		var attrs [8]slog.Attr
		attrs[0] = slog.String("method", r.Method)
		attrs[1] = slog.String("path", r.URL.Path)
		attrs[2] = slog.Int("status", status)
		attrs[3] = slog.Duration("dur", dur)
		attrs[4] = slog.Int64("bytes", sw.bytes)
		n := 5
		if q := r.URL.RawQuery; q != "" {
			attrs[n] = slog.String("query", q)
			n++
		}
		if traceID != "" {
			attrs[n] = slog.String("id", traceID)
			n++
		}
		if st.admissionWait > 0 {
			attrs[n] = slog.Duration("admission_wait", st.admissionWait)
			n++
		}
		rec := slog.NewRecord(time.Now(), level, msg, 0)
		rec.AddAttrs(attrs[:n]...)
		h.Handle(r.Context(), rec) // a failed log write has nowhere better to go
	})
}

// statusWriter records the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

// Status is the response code sent (200 when the handler wrote a body
// without an explicit WriteHeader, 0 when nothing was written at all).
func (w *statusWriter) Status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming handlers
// (pprof's profile and trace endpoints) keep working wrapped.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

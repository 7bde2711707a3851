package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	reach "repro"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/shard"
)

// statusClientGone is the nginx-convention status for "client closed the
// request before the response was written". Nobody reads it off the
// wire; it exists so access logs and route counters classify these apart
// from real failures.
const statusClientGone = 499

// maxBatchBody bounds the /v1/batch request body; combined with
// Config.MaxBatch it keeps one request from ballooning server memory.
const maxBatchBody = 16 << 20

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	// Query endpoints go through the admission controller; ops surfaces
	// bypass it — health checks and metric scrapes must answer even (and
	// especially) when the query path is saturated.
	//
	// Only the routes whose work polls its context carry the request
	// deadline (Config.RequestTimeout): a product-graph search, a batch
	// and a mutation. A point reach checks its context once, at entry,
	// and the path and allowed-labels searches never see it, so a timer
	// there would be built and torn down unread.
	mux.Handle("/v1/reach", s.admit(s.handleReach, false))
	mux.Handle("/v1/query", s.admit(s.handleQuery, true))
	mux.Handle("/v1/allowed", s.admit(s.handleAllowed, false))
	mux.Handle("POST /v1/batch", s.admit(s.handleBatch, true))
	mux.Handle("/v1/path", s.admit(s.handlePath, false))
	mux.Handle("POST /v1/mutate", s.admit(s.handleMutate, true))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /admin/stats", s.handleStats)
	mux.HandleFunc("GET /admin/shards", s.handleShards)
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// admit wraps a query handler in the admission controller and the
// in-flight accounting, and, when deadline is set, the per-request
// deadline.
func (s *Server) admit(h http.HandlerFunc, deadline bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := stateFrom(r.Context())
		var tok int
		if st != nil && st.trace != nil {
			tok = st.trace.Begin("admission/wait")
		}
		waitStart := time.Now()
		verdict := s.adm.acquire(r.Context())
		if st != nil {
			st.admissionWait = time.Since(waitStart)
			if st.trace != nil {
				st.trace.End(tok)
			}
		}
		switch verdict {
		case admitRejected:
			s.metrics.Rejected.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(s.cfg.RetryAfter)))
			writeErr(w, http.StatusTooManyRequests, "server overloaded; retry later")
			return
		case admitGone:
			writeErr(w, statusClientGone, "client closed request while queued")
			return
		}
		s.metrics.Accepted.Inc()
		s.metrics.InFlight.Add(1)
		defer func() {
			s.metrics.InFlight.Add(-1)
			if s.draining.Load() {
				s.metrics.Drained.Inc()
			}
			s.adm.release()
		}()
		if deadline && s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if hook := s.testHookAdmitted; hook != nil {
			hook(r)
		}
		h(w, r)
	})
}

func retrySeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// --- query endpoints ---------------------------------------------------

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	db := s.DB()
	sv, tv, ok := s.pair(w, r, db.Graph())
	if !ok {
		return
	}
	res, err := db.ReachCtx(r.Context(), sv, tv)
	if err != nil {
		s.writeQueryErr(w, r, err)
		return
	}
	writeReach(w, res)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	db := s.DB()
	sv, tv, ok := s.pair(w, r, db.Graph())
	if !ok {
		return
	}
	alpha := r.FormValue("alpha")
	if alpha == "" {
		writeErr(w, http.StatusBadRequest, "missing alpha (the path-constraint expression)")
		return
	}
	res, err := db.QueryCtx(r.Context(), sv, tv, alpha)
	if err != nil {
		s.writeQueryErr(w, r, err)
		return
	}
	writeReach(w, res)
}

func (s *Server) handleAllowed(w http.ResponseWriter, r *http.Request) {
	db := s.DB()
	g := db.Graph()
	sv, tv, ok := s.pair(w, r, g)
	if !ok {
		return
	}
	raw := r.FormValue("labels")
	if raw == "" {
		writeErr(w, http.StatusBadRequest, "missing labels (comma-separated label names or ids)")
		return
	}
	var labels []reach.Label
	for _, tok := range strings.Split(raw, ",") {
		l, err := labelOf(g, strings.TrimSpace(tok))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		labels = append(labels, l)
	}
	res, err := db.QueryAllowed(sv, tv, labels...)
	if err != nil {
		s.writeQueryErr(w, r, err)
		return
	}
	writeReach(w, res)
}

type batchResponse struct {
	Results []bool `json:"results"`
}

// handleBatch answers POST /v1/batch: decode the body into pairs, have
// the DB's serving index answer them (DB.BatchReachCtx), and append the
// response document rather than reflect it. The request's trace gets one
// phase per step, so /debug/traces shows where a batch went.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	db := s.DB()
	tr := obs.TraceFrom(r.Context())
	sc := batchScratchPool.Get().(*batchScratch)
	defer putBatchScratch(sc)

	tok := tr.Begin("decode")
	ok := s.decodeBatchBody(w, r, db.Graph(), sc)
	tr.End(tok)
	if !ok {
		return
	}
	tok = tr.Begin("index/probe")
	out, err := db.BatchReachCtx(r.Context(), sc.pairs)
	tr.End(tok)
	if err != nil {
		s.writeQueryErr(w, r, err)
		return
	}
	tok = tr.Begin("encode")
	sc.resp = appendBatchResponse(sc.resp[:0], out)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.resp)))
	w.WriteHeader(http.StatusOK)
	w.Write(sc.resp) // nothing sensible to do with a write error: client owns the conn
	tr.End(tok)
}

// decodeBatchBody reads the request body once into sc.body and decodes it
// into sc.pairs, resolved against g: in one pass when the body is the
// documented grammar (scanBatch), through encoding/json — same bytes,
// that decoder's answers — when it is not. A body with more than MaxBatch
// pairs is refused at the first pair over the limit, not after decoding
// all of them. On failure the error response is written and ok is false.
func (s *Server) decodeBatchBody(w http.ResponseWriter, r *http.Request, g *reach.Graph, sc *batchScratch) (ok bool) {
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBatchBody)); err != nil {
		writeErr(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return false
	}
	var verdict scanVerdict
	sc.pairs, verdict = scanBatch(sc.body.Bytes(), g, s.cfg.MaxBatch, sc.pairs)
	if verdict == scanDeclined {
		var err error
		sc.pairs, verdict, err = decodeBatch(sc.body.Bytes(), g, s.cfg.MaxBatch, sc.pairs)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return false
		}
	}
	if verdict == scanTooMany {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch has more than %d pairs", s.cfg.MaxBatch))
		return false
	}
	return true
}

type pathResponse struct {
	Found bool       `json:"found"`
	Path  []reach.V  `json:"path,omitempty"`
	Edges []pathEdge `json:"edges,omitempty"`
}

type pathEdge struct {
	From  reach.V `json:"from"`
	To    reach.V `json:"to"`
	Label string  `json:"label,omitempty"`
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	db := s.DB()
	g := db.Graph()
	sv, tv, ok := s.pair(w, r, g)
	if !ok {
		return
	}
	if alpha := r.FormValue("alpha"); alpha != "" {
		edges, err := db.QueryPath(sv, tv, alpha)
		if err != nil {
			s.writeQueryErr(w, r, err)
			return
		}
		resp := pathResponse{Found: edges != nil}
		for _, e := range edges {
			resp.Edges = append(resp.Edges, pathEdge{From: e.From, To: e.To, Label: g.LabelName(e.Label)})
		}
		// QueryPath returns empty-but-non-nil edges for the s == t empty
		// path; a nil slice means no satisfying path exists.
		writeJSON(w, http.StatusOK, resp)
		return
	}
	path, err := db.ReachPath(sv, tv)
	if err != nil {
		s.writeQueryErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, pathResponse{Found: path != nil, Path: path})
}

// --- ops surfaces ------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders every metrics surface the server has —
// admission/lifecycle gauges, tracer counters, and the current DB's
// index/route/cache/build cells — as one Prometheus text document under
// the "reach" namespace. There is no other representation, so the Accept
// header and ?format= are not consulted.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	s.metrics.Snapshot().WriteProm(w, "reach")
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Stats().WriteProm(w, "reach")
	}
	if snap, ok := s.DB().MetricsSnapshot(); ok {
		snap.WriteProm(w, "reach")
	}
}

// handleTraces serves the tracer's ring buffers: recent traces and the
// slow-query log, newest first, with per-phase timings.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Tracer == nil {
		writeErr(w, http.StatusNotFound, "tracing disabled (start with -trace-buffer > 0)")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Tracer.Snapshot())
}

// statsResponse is the /admin/stats JSON document.
type statsResponse struct {
	Graph struct {
		Vertices int `json:"vertices"`
		Edges    int `json:"edges"`
		Labels   int `json:"labels"`
	} `json:"graph"`
	Indexes   map[string]reach.Stats `json:"indexes"`
	Epoch     uint64                 `json:"epoch"`
	Degraded  map[string]string      `json:"degraded,omitempty"`
	Cache     *obs.CacheSnapshot     `json:"cache,omitempty"`
	Mutation  *mutate.Stats          `json:"mutation,omitempty"`
	Shards    *shardsResponse        `json:"shards,omitempty"`
	Build     []obs.PhaseSpan        `json:"build,omitempty"`
	Server    obs.ServerSnapshot     `json:"server"`
	Draining  bool                   `json:"draining,omitempty"`
	Reloading bool                   `json:"reloading,omitempty"`
}

// shardsResponse is the /admin/shards JSON document (also embedded in
// /admin/stats when the DB's plain engine is sharded).
type shardsResponse struct {
	K       int               `json:"k"`
	Shards  []shard.ShardInfo `json:"shards"`
	Summary shard.SummaryInfo `json:"summary"`
}

func shardsOf(db *reach.DB) *shardsResponse {
	shards, summary, ok := db.ShardInfo()
	if !ok {
		return nil
	}
	return &shardsResponse{K: len(shards), Shards: shards, Summary: summary}
}

// handleShards serves the per-shard census of a sharded DB: sub-DAG
// sizes, boundary/exit/entry counts, per-shard index footprints and probe
// counters, plus the boundary summary graph. 404 on an unsharded DB.
func (s *Server) handleShards(w http.ResponseWriter, _ *http.Request) {
	resp := shardsOf(s.DB())
	if resp == nil {
		writeErr(w, http.StatusNotFound, "db is not sharded (start with -shards > 1)")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	db := s.DB()
	g := db.Graph()
	resp := statsResponse{
		Indexes:   db.Stats(),
		Epoch:     db.Epoch(),
		Server:    s.metrics.Snapshot(),
		Draining:  s.draining.Load(),
		Reloading: s.reloading.Load(),
	}
	resp.Graph.Vertices = g.N()
	resp.Graph.Edges = g.M()
	resp.Graph.Labels = g.Labels()
	if dr := db.DegradedRoutes(); len(dr) > 0 {
		resp.Degraded = make(map[string]string, len(dr))
		for route, err := range dr {
			resp.Degraded[route] = firstLine(err)
		}
	}
	if cs, ok := db.CacheStats(); ok {
		resp.Cache = &cs
	}
	if ms, ok := db.MutationStats(); ok {
		resp.Mutation = &ms
	}
	resp.Shards = shardsOf(db)
	if snap, ok := db.MetricsSnapshot(); ok {
		resp.Build = snap.Build
	}
	writeJSON(w, http.StatusOK, resp)
}

type reloadResponse struct {
	Reloaded   bool   `json:"reloaded"`
	DurationMS int64  `json:"duration_ms"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	Error      string `json:"error,omitempty"`
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	ctx, cancel := s.reloadCtx()
	defer cancel()
	start := time.Now()
	err := s.Reload(ctx)
	switch {
	case errors.Is(err, ErrReloadInProgress):
		writeJSON(w, http.StatusConflict, reloadResponse{Error: err.Error()})
		return
	case err != nil:
		status := statusCode(err)
		if status == http.StatusBadRequest {
			// A rebuild failing on its own configuration is a server-side
			// fault from the client's point of view.
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, reloadResponse{Error: firstLine(err)})
		return
	}
	db := s.DB()
	writeJSON(w, http.StatusOK, reloadResponse{
		Reloaded:   true,
		DurationMS: time.Since(start).Milliseconds(),
		Vertices:   db.Graph().N(),
		Edges:      db.Graph().M(),
	})
}

// --- request plumbing --------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

// jsonContentType is the Content-Type of every JSON response, one shared
// value slice rather than one per response.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // nothing sensible to do with a write error: client owns the conn
}

// reachBodies are the two bodies of a 200 from /v1/reach, /v1/query and
// /v1/allowed, encoded once: the bytes writeJSON writes for
// {"reachable": false} and {"reachable": true}.
var reachBodies = [2][]byte{[]byte(`{"reachable":false}` + "\n"), []byte(`{"reachable":true}` + "\n")}

// writeReach writes a reachability answer: the response writeJSON would
// write for it, without encoding it again.
func writeReach(w http.ResponseWriter, res bool) {
	body := reachBodies[0]
	if res {
		body = reachBodies[1]
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(body) // nothing sensible to do with a write error: client owns the conn
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// statusCode maps an error from the reach package's query and build entry
// points to the HTTP status the server reports:
//
//	nil                        → 200
//	ErrVertexRange, ErrBadQuery,
//	ErrBadOptions              → 400 (caller error; retrying is pointless)
//	context.DeadlineExceeded,
//	ErrBuildCanceled           → 504 (the per-request deadline fired)
//	context.Canceled           → 499 (client went away; nobody is reading)
//	ErrNotMutable              → 501 (endpoint exists, DB lacks the feature)
//	ErrIndexPanic, anything else → 500
//
// Degraded-mode serving never reaches this table: a DB built with
// DBConfig.Degraded answers its degraded routes with nil errors (exact,
// index-free), so those requests stay 200.
func statusCode(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, reach.ErrVertexRange), errors.Is(err, reach.ErrBadQuery), errors.Is(err, reach.ErrBadOptions):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, reach.ErrBuildCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientGone
	case errors.Is(err, reach.ErrNotMutable):
		return http.StatusNotImplemented
	default:
		return http.StatusInternalServerError
	}
}

// writeQueryErr maps a DB error to its status. The request context is
// consulted first: once it is done, the interesting classification is
// why (client gone → 499, deadline → 504) rather than which checkpoint
// or index surfaced the cancellation.
func (s *Server) writeQueryErr(w http.ResponseWriter, r *http.Request, err error) {
	status := statusCode(err)
	if ctxErr := r.Context().Err(); ctxErr != nil && status != http.StatusBadRequest {
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		} else {
			status = statusClientGone
		}
	}
	writeErr(w, status, firstLine(err))
}

// pair parses the s and t request parameters against g, writing the 400
// itself when either is missing or unresolvable.
func (s *Server) pair(w http.ResponseWriter, r *http.Request, g *reach.Graph) (sv, tv reach.V, ok bool) {
	sTok, tTok, inPlace := rawPair(r)
	if !inPlace {
		sTok, tTok = r.FormValue("s"), r.FormValue("t")
	}
	var err error
	if sv, err = vertexOf(g, sTok); err != nil {
		writeErr(w, http.StatusBadRequest, "s: "+err.Error())
		return 0, 0, false
	}
	if tv, err = vertexOf(g, tTok); err != nil {
		writeErr(w, http.StatusBadRequest, "t: "+err.Error())
		return 0, 0, false
	}
	return sv, tv, true
}

// rawPair reads the first s and t values straight from the raw query,
// without building the form map, when that is exactly what FormValue
// would return: a GET or HEAD (no form body is read), both keys present
// in the query (so a multipart value, appended after it, never comes
// first), and no '%', '+' or ';' in it (nothing to unescape, no pair
// ParseQuery would reject). ok is false in every other case.
func rawPair(r *http.Request) (sTok, tTok string, ok bool) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return "", "", false
	}
	q := r.URL.RawQuery
	if strings.ContainsAny(q, "%+;") {
		return "", "", false
	}
	var haveS, haveT bool
	for q != "" && !(haveS && haveT) {
		var kv string
		kv, q, _ = strings.Cut(q, "&")
		k, v, _ := strings.Cut(kv, "=")
		switch {
		case k == "s" && !haveS:
			sTok, haveS = v, true
		case k == "t" && !haveT:
			tTok, haveT = v, true
		}
	}
	return sTok, tTok, haveS && haveT
}

// vertexOf resolves a request token to a vertex: a decimal id, or a
// vertex name from the graph file.
func vertexOf(g *reach.Graph, tok string) (reach.V, error) {
	if tok == "" {
		return 0, errors.New("missing vertex")
	}
	if n, err := strconv.ParseUint(tok, 10, 32); err == nil {
		if int(n) >= g.N() {
			return 0, fmt.Errorf("vertex %d out of range (graph has %d vertices)", n, g.N())
		}
		return reach.V(n), nil
	}
	if v, ok := g.VertexByName(tok); ok {
		return v, nil
	}
	return 0, fmt.Errorf("unknown vertex %q", tok)
}

// labelOf resolves a label token: a decimal label id, or a label name.
func labelOf(g *reach.Graph, tok string) (reach.Label, error) {
	if tok == "" {
		return 0, errors.New("empty label")
	}
	if n, err := strconv.ParseUint(tok, 10, 16); err == nil && int(n) < g.Labels() {
		return reach.Label(n), nil
	}
	for l := 0; l < g.Labels(); l++ {
		if g.LabelName(reach.Label(l)) == tok {
			return reach.Label(l), nil
		}
	}
	return 0, fmt.Errorf("unknown label %q", tok)
}

// firstLine trims an error to its first line: contained-panic errors
// carry the originating goroutine stack in their message, which belongs
// in server logs, not on the wire.
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " ..."
	}
	return s
}

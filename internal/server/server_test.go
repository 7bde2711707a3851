package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	reach "repro"
	"repro/internal/faultinject"
	"repro/internal/mutate"
)

// fig1DB builds a DB over the paper's Figure 1(b) labeled graph.
func fig1DB(t *testing.T, cfg reach.DBConfig) *reach.DB {
	t.Helper()
	db, err := reach.NewDB(reach.Fig1Labeled(), cfg)
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	return db
}

// newTestServer stands up a Server over Fig1(b) plus an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = fig1DB(t, reach.DBConfig{})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	var m map[string]any
	if len(body) > 0 {
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return m
}

// TestEndpoints drives every query endpoint over HTTP and checks the
// paper's published Figure 1 answers come back with the right statuses.
func TestEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})

	for _, tc := range []struct {
		name, url string
		status    int
		reachable any // nil to skip the field check
	}{
		{"reach-pos", "/v1/reach?s=A&t=G", 200, true},
		{"reach-neg", "/v1/reach?s=G&t=A", 200, false},
		{"reach-by-id", "/v1/reach?s=0&t=4", 200, true},
		{"reach-bad-vertex", "/v1/reach?s=A&t=ZZZ", 400, nil},
		{"reach-out-of-range", "/v1/reach?s=0&t=99", 400, nil},
		{"query-constrained", "/v1/query?s=A&t=G&alpha=(friendOf|follows)*", 200, false},
		{"query-missing-alpha", "/v1/query?s=A&t=G", 400, nil},
		{"query-bad-alpha", "/v1/query?s=A&t=G&alpha=((", 400, nil},
		{"allowed-pos", "/v1/allowed?s=L&t=M&labels=worksFor,follows", 200, true},
		{"allowed-neg", "/v1/allowed?s=A&t=G&labels=friendOf,follows", 200, false},
		{"allowed-bad-label", "/v1/allowed?s=A&t=G&labels=nosuch", 400, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := getJSON(t, ts.URL+tc.url, tc.status)
			if tc.reachable != nil && m["reachable"] != tc.reachable {
				t.Errorf("reachable = %v, want %v", m["reachable"], tc.reachable)
			}
			if tc.status != 200 && m["error"] == "" {
				t.Errorf("error body missing: %v", m)
			}
		})
	}

	t.Run("path-plain", func(t *testing.T) {
		m := getJSON(t, ts.URL+"/v1/path?s=A&t=G", 200)
		if m["found"] != true || len(m["path"].([]any)) < 2 {
			t.Errorf("path = %v", m)
		}
	})
	t.Run("path-constrained", func(t *testing.T) {
		m := getJSON(t, ts.URL+"/v1/path?s=L&t=B&alpha=(worksFor.friendOf)*", 200)
		if m["found"] != true || len(m["edges"].([]any)) != 4 {
			t.Errorf("constrained path = %v", m)
		}
	})

	t.Run("batch", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
			strings.NewReader(`{"pairs":[{"s":"A","t":"G"},{"s":"G","t":"A"},{"s":0,"t":1}]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m batchResponse
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || resp.StatusCode != 200 {
			t.Fatalf("batch: status %d err %v", resp.StatusCode, err)
		}
		// A→G holds, G→A does not, and 0→1 is A→B via (A,D,H,G,B).
		want := []bool{true, false, true}
		for i, w := range want {
			if m.Results[i] != w {
				t.Errorf("batch[%d] = %v, want %v", i, m.Results[i], w)
			}
		}
	})
	t.Run("batch-too-big", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
			strings.NewReader(`{"pairs":[{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1}]}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "batch has more than 4 pairs") {
			t.Errorf("oversized batch: status %d body %s, want 413 naming the limit", resp.StatusCode, body)
		}
	})
	t.Run("batch-method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/batch")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/batch: status %d, want 405", resp.StatusCode)
		}
	})

	t.Run("ops", func(t *testing.T) {
		for _, url := range []string{"/healthz", "/readyz"} {
			resp, err := http.Get(ts.URL + url)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("%s: status %d", url, resp.StatusCode)
			}
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "reach_server_accepted_total ") {
			t.Errorf("/metrics missing reach_server_accepted_total: %s", body)
		}
		stats := getJSON(t, ts.URL+"/admin/stats", 200)
		if g := stats["graph"].(map[string]any); g["vertices"] != float64(9) {
			t.Errorf("stats graph = %v", g)
		}
		if _, ok := stats["indexes"].(map[string]any)["BFL"]; !ok {
			t.Errorf("stats missing BFL index: %v", stats["indexes"])
		}
	})
}

// TestClientCancelMidRequest cancels a request while the handler is
// mid-flight and verifies the server releases the slot and keeps serving.
func TestClientCancelMidRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	entered := make(chan struct{}, 1)
	s.testHookAdmitted = func(r *http.Request) {
		entered <- struct{}{}
		<-r.Context().Done() // hold the request until the client hangs up
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/reach?s=A&t=G", nil)
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned a response")
	}

	// The slot must come back and later requests must succeed.
	s.testHookAdmitted = nil
	deadline := time.Now().Add(2 * time.Second)
	for s.metrics.InFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight stuck at %d after cancel", s.metrics.InFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if m := getJSON(t, ts.URL+"/v1/reach?s=A&t=G", 200); m["reachable"] != true {
		t.Errorf("post-cancel request: %v", m)
	}
}

// TestAdmissionOverload saturates a 2-slot server and checks the
// acceptance criterion: overflow is rejected with 429 + Retry-After while
// observed in-flight never exceeds the bound, and the stalled requests
// still complete once released.
func TestAdmissionOverload(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxInFlight: 2,
		MaxQueue:    2,
		QueueWait:   50 * time.Millisecond,
	})
	gate := make(chan struct{})
	s.testHookAdmitted = func(*http.Request) { <-gate }

	const clients = 10
	statuses := make(chan int, clients)
	retryAfter := make(chan string, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/reach?s=A&t=G")
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter <- resp.Header.Get("Retry-After")
			}
			statuses <- resp.StatusCode
		}()
	}

	// All but the two admitted must be rejected: the queue never exceeds
	// 2 and queued requests give up after QueueWait.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.Rejected.Load() < clients-2 {
		if inflight := s.metrics.InFlight.Load(); inflight > 2 {
			t.Fatalf("in-flight %d exceeds MaxInFlight 2", inflight)
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejected = %d, want %d", s.metrics.Rejected.Load(), clients-2)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	counts := map[int]int{}
	for i := 0; i < clients; i++ {
		counts[<-statuses]++
	}
	if counts[200] != 2 || counts[429] != clients-2 {
		t.Fatalf("status counts = %v, want 2×200 and %d×429", counts, clients-2)
	}
	for i := 0; i < clients-2; i++ {
		if ra := <-retryAfter; ra == "" {
			t.Fatal("429 without Retry-After header")
		}
	}
	if got := s.metrics.Accepted.Load(); got != 2 {
		t.Errorf("accepted = %d, want 2", got)
	}
}

// TestDegradedServing injects a panic into the LCR build, brings the DB
// up in degraded mode, and verifies constrained queries still answer 200
// (via online traversal) while /admin/stats reports the degradation.
func TestDegradedServing(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{Site: "build/lcr/p2h", Kind: faultinject.Panic, After: 3})
	db, err := reach.NewDB(reach.Fig1Labeled(), reach.DBConfig{Degraded: true, Metrics: true})
	faultinject.Deactivate()
	if err != nil {
		t.Fatalf("degraded NewDB: %v", err)
	}
	if dr := db.DegradedRoutes(); dr["lcr"] == nil {
		t.Fatalf("DegradedRoutes = %v, want lcr entry", dr)
	}
	_, ts := newTestServer(t, Config{DB: db})

	// The alternation queries route index-free but stay correct: the
	// paper's Qr(A,G,(friendOf ∪ follows)*) = false, Qr(L,M,worksFor*) = true.
	if m := getJSON(t, ts.URL+"/v1/query?s=A&t=G&alpha=(friendOf|follows)*", 200); m["reachable"] != false {
		t.Errorf("degraded query = %v, want false", m)
	}
	if m := getJSON(t, ts.URL+"/v1/allowed?s=L&t=M&labels=worksFor", 200); m["reachable"] != true {
		t.Errorf("degraded allowed = %v, want true", m)
	}
	stats := getJSON(t, ts.URL+"/admin/stats", 200)
	deg, ok := stats["degraded"].(map[string]any)
	if !ok || deg["lcr"] == nil {
		t.Errorf("stats degraded = %v, want lcr entry", stats["degraded"])
	}
}

// TestReloadDuringTraffic hammers the query path while hot-swapping the
// DB underneath it; the acceptance criterion is zero failed requests
// across the swaps.
func TestReloadDuringTraffic(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Rebuild: func(ctx context.Context) (*reach.DB, error) {
			return reach.NewDBCtx(ctx, reach.Fig1Labeled(), reach.DBConfig{})
		},
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	type failure struct {
		status int
		body   string
	}
	failures := make(chan failure, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			urls := []string{
				ts.URL + "/v1/reach?s=A&t=G",
				ts.URL + "/v1/query?s=L&t=M&alpha=(worksFor)*",
			}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(urls[n%len(urls)])
				if err != nil {
					failures <- failure{-1, err.Error()}
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					failures <- failure{resp.StatusCode, string(body)}
					return
				}
			}
		}(i)
	}

	const reloads = 5
	for i := 0; i < reloads; i++ {
		resp, err := http.Post(ts.URL+"/admin/reload", "", nil)
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("reload %d: status %d body %s", i, resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Errorf("request failed during reload: status %d body %s", f.status, f.body)
	}
	if got := s.metrics.Reloads.Load(); got != reloads {
		t.Errorf("reloads = %d, want %d", got, reloads)
	}
}

// TestReloadRetiresReplacedDB: a reload closes the DB it replaces, so a
// mutable DB's engine (its group-commit batcher, reindexer and WAL) stops
// with the reload instead of running on behind a DB nothing serves from.
// The old DB keeps answering queries, as requests still in flight on it
// need.
func TestReloadRetiresReplacedDB(t *testing.T) {
	dir := t.TempDir()
	var boots atomic.Int64
	mutable := func(ctx context.Context) (*reach.DB, error) {
		wal := filepath.Join(dir, fmt.Sprintf("boot%d.wal", boots.Add(1)))
		return reach.NewDBCtx(ctx, reach.Fig1Plain(), reach.DBConfig{Mutation: &reach.MutationConfig{WALPath: wal}})
	}
	old, err := mutable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{DB: old, Rebuild: mutable})
	t.Cleanup(func() { s.DB().Close() })
	if ok, _ := old.Reach(1, 0); ok {
		t.Fatal("Figure 1 already reaches 0 from 1: the edge below would add nothing")
	}
	if err := old.AddEdge(context.Background(), 1, 0); err != nil {
		t.Fatalf("AddEdge before the reload: %v", err)
	}
	if err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.DB() == old {
		t.Fatal("reload did not swap the DB")
	}
	if err := old.AddEdge(context.Background(), 2, 0); !errors.Is(err, mutate.ErrClosed) {
		t.Fatalf("AddEdge on the replaced DB = %v, want ErrClosed", err)
	}
	if ok, err := old.Reach(1, 0); err != nil || !ok {
		t.Fatalf("Reach(1,0) on the replaced DB = %v, %v; want its acknowledged edge", ok, err)
	}
	if n := s.Metrics().ReloadErrors.Load(); n != 0 {
		t.Fatalf("reload_errors = %d after a clean reload", n)
	}
}

// TestReloadConflict verifies concurrent reloads serialize: the second
// gets ErrReloadInProgress while the first is still rebuilding.
func TestReloadConflict(t *testing.T) {
	block := make(chan struct{})
	s, _ := newTestServer(t, Config{
		Rebuild: func(ctx context.Context) (*reach.DB, error) {
			<-block
			return reach.NewDBCtx(ctx, reach.Fig1Labeled(), reach.DBConfig{})
		},
	})
	first := make(chan error, 1)
	go func() { first <- s.Reload(context.Background()) }()
	deadline := time.Now().Add(2 * time.Second)
	for !s.reloading.Load() {
		if time.Now().After(deadline) {
			t.Fatal("first reload never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Reload(context.Background()); err != ErrReloadInProgress {
		t.Fatalf("concurrent reload: err = %v, want ErrReloadInProgress", err)
	}
	close(block)
	if err := <-first; err != nil {
		t.Fatalf("first reload: %v", err)
	}
}

// TestGracefulDrain runs the full lifecycle on a real listener: stall
// in-flight requests, begin Shutdown, observe /readyz flip to 503, then
// release and verify every stalled request completed — zero dropped.
func TestGracefulDrain(t *testing.T) {
	db := fig1DB(t, reach.DBConfig{})
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.testHookAdmitted = func(*http.Request) { <-gate }

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	const inflight = 4
	statuses := make(chan int, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			resp, err := http.Get(base + "/v1/reach?s=A&t=G")
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.InFlight.Load() != inflight {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight = %d, want %d", s.metrics.InFlight.Load(), inflight)
		}
		time.Sleep(time.Millisecond)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	// The readiness probe must report draining so load balancers stop
	// routing here; probe through the handler (the listener is closing).
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: status %d, want 503", rec.Code)
	}

	close(gate)
	for i := 0; i < inflight; i++ {
		if st := <-statuses; st != 200 {
			t.Errorf("request dropped during drain: status %d", st)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	if got := s.metrics.Drained.Load(); got != inflight {
		t.Errorf("drained = %d, want %d", got, inflight)
	}
}

// TestRequestTimeout gives the server a tiny per-request deadline and
// stalls each route that carries it past it: the response must be 504,
// not a hang.
func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 20 * time.Millisecond})
	s.testHookAdmitted = func(r *http.Request) { <-r.Context().Done() }
	for _, tc := range []struct{ method, url, body string }{
		{"GET", "/v1/query?s=A&t=G&alpha=(friendOf|follows)*", ""},
		{"POST", "/v1/batch", `{"pairs":[{"s":0,"t":1}]}`},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s %s stalled: status %d body %s, want 504", tc.method, tc.url, resp.StatusCode, body)
		}
	}
}

// TestRequestDeadlineRoutes checks which routes carry Config.RequestTimeout:
// the three whose work polls its context (/v1/query, /v1/batch,
// /v1/mutate) and none of the others.
func TestRequestDeadlineRoutes(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: time.Minute})
	var mu sync.Mutex
	hasDeadline := map[string]bool{}
	s.testHookAdmitted = func(r *http.Request) {
		_, ok := r.Context().Deadline()
		mu.Lock()
		hasDeadline[r.URL.Path] = ok
		mu.Unlock()
	}
	for _, tc := range []struct {
		method, url, body string
		want              bool
	}{
		{"GET", "/v1/reach?s=A&t=G", "", false},
		{"GET", "/v1/path?s=A&t=G", "", false},
		{"GET", "/v1/allowed?s=A&t=G&labels=0", "", false},
		{"GET", "/v1/query?s=A&t=G&alpha=(friendOf|follows)*", "", true},
		{"POST", "/v1/batch", `{"pairs":[{"s":0,"t":1}]}`, true},
		{"POST", "/v1/mutate", `{"ops":[]}`, true},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		path, _, _ := strings.Cut(tc.url, "?")
		mu.Lock()
		got, seen := hasDeadline[path]
		mu.Unlock()
		if !seen {
			t.Errorf("%s: admission hook never ran", path)
		} else if got != tc.want {
			t.Errorf("%s: request deadline set = %v, want %v", path, got, tc.want)
		}
	}
}

// TestStatusCode pins the whole error → status table, wrapped errors
// included (entry points wrap the sentinels with detail).
func TestStatusCode(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{nil, 200},
		{fmt.Errorf("pair: %w", reach.ErrVertexRange), 400},
		{reach.ErrBadQuery, 400},
		{reach.ErrBadOptions, 400},
		{reach.ErrPrebuiltEngine, 400},
		{context.DeadlineExceeded, 504},
		{fmt.Errorf("build: %w", reach.ErrBuildCanceled), 504},
		{context.Canceled, 499},
		{reach.ErrNotMutable, 501},
		{reach.ErrIndexPanic, 500},
		{errors.New("disk on fire"), 500},
	} {
		if got := statusCode(c.err); got != c.want {
			t.Errorf("statusCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestBadQueryStatus covers the statusCode mapping end to end for
// the 400 family (vertex range and malformed constraint expressions).
func TestBadQueryStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{
		"/v1/reach?s=0&t=9999",
		"/v1/query?s=A&t=G&alpha=)(",
		"/v1/path?s=A&t=G&alpha=)(",
	} {
		m := getJSON(t, ts.URL+url, 400)
		if m["error"] == "" {
			t.Errorf("%s: missing error body", url)
		}
	}
}

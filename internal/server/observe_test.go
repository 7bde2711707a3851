package server

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	reach "repro"
	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe log sink for the access-log tests.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// tracedServer builds a server with tracing, access logging and a traced
// DB, returning the log sink alongside.
func tracedServer(t *testing.T, slowThreshold time.Duration) (*Server, *httptest.Server, *syncBuffer) {
	t.Helper()
	buf := &syncBuffer{}
	cfg := Config{
		DB:        fig1DB(t, reach.DBConfig{Metrics: true}),
		Tracer:    obs.NewTracer(8, slowThreshold),
		AccessLog: slog.New(slog.NewJSONHandler(buf, nil)),
	}
	s, ts := newTestServer(t, cfg)
	return s, ts, buf
}

func TestTraceMiddleware(t *testing.T) {
	_, ts, logbuf := tracedServer(t, 0)

	// A caller-supplied request ID is propagated and echoed back.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/reach?s=A&t=G", nil)
	req.Header.Set("X-Request-Id", "caller-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-id-1" {
		t.Fatalf("echoed request ID = %q, want caller-id-1", got)
	}

	// Without one, the server generates an ID and still echoes it.
	resp2, err := http.Get(ts.URL + "/v1/reach?s=A&t=B")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	generated := resp2.Header.Get("X-Request-Id")
	if generated == "" {
		t.Fatal("no generated X-Request-Id on response")
	}

	// /debug/traces serves both, newest first, with phase timelines that
	// include the admission wait and the DB's index probe.
	snap := getJSON(t, ts.URL+"/debug/traces", 200)
	recent, _ := snap["recent"].([]any)
	if len(recent) != 2 {
		t.Fatalf("recent = %d traces, want 2 (snapshot %v)", len(recent), snap)
	}
	newest := recent[0].(map[string]any)
	if newest["id"] != generated {
		t.Fatalf("recent[0].id = %v, want %q", newest["id"], generated)
	}
	oldest := recent[1].(map[string]any)
	if oldest["id"] != "caller-id-1" {
		t.Fatalf("recent[1].id = %v, want caller-id-1", oldest["id"])
	}
	if oldest["method"] != "GET" || oldest["path"] != "/v1/reach" || oldest["status"] != float64(200) {
		t.Fatalf("trace metadata = %v", oldest)
	}
	if oldest["route"] != "plain" {
		t.Fatalf("trace route = %v, want plain", oldest["route"])
	}
	var names []string
	for _, p := range oldest["phases"].([]any) {
		names = append(names, p.(map[string]any)["name"].(string))
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"admission/wait", "index/probe"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("phases %v missing %q", names, want)
		}
	}

	// Ops endpoints are not traced.
	http.Get(ts.URL + "/healthz")
	snap = getJSON(t, ts.URL+"/debug/traces", 200)
	if got := len(snap["recent"].([]any)); got != 2 {
		t.Fatalf("healthz added a trace: recent = %d", got)
	}

	// The access log carries one structured line per request with the
	// trace ID joined in.
	var sawTraced bool
	sc := bufio.NewScanner(strings.NewReader(logbuf.String()))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("access log line %q not JSON: %v", sc.Text(), err)
		}
		if line["msg"] != "request" && line["msg"] != "slow request" {
			continue
		}
		if line["id"] == "caller-id-1" {
			sawTraced = true
			if line["method"] != "GET" || line["path"] != "/v1/reach" || line["status"] != float64(200) {
				t.Fatalf("access log line = %v", line)
			}
		}
	}
	if !sawTraced {
		t.Fatalf("no access-log line for caller-id-1 in:\n%s", logbuf.String())
	}
}

func TestSlowQueryLog(t *testing.T) {
	// A 1ns threshold makes every request slow: the slow ring fills and
	// the access log escalates to "slow request" at Warn.
	_, ts, logbuf := tracedServer(t, time.Nanosecond)
	resp, err := http.Get(ts.URL + "/v1/reach?s=A&t=G")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	snap := getJSON(t, ts.URL+"/debug/traces", 200)
	slowRing, _ := snap["slow"].([]any)
	if len(slowRing) != 1 {
		t.Fatalf("slow ring = %d, want 1 (snapshot %v)", len(slowRing), snap)
	}
	if slowRing[0].(map[string]any)["slow"] != true {
		t.Fatalf("slow record not flagged: %v", slowRing[0])
	}
	if !strings.Contains(logbuf.String(), `"msg":"slow request"`) ||
		!strings.Contains(logbuf.String(), `"level":"WARN"`) {
		t.Fatalf("no WARN slow-request line in:\n%s", logbuf.String())
	}
}

func TestTracesDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces without a tracer = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsContentNegotiation: /metrics has one representation. Every
// selector a client might send — none, a Prometheus scraper's Accept, an
// openmetrics or JSON Accept, ?format= — gets the same exposition.
func TestMetricsContentNegotiation(t *testing.T) {
	tracer := obs.NewTracer(8, 250*time.Millisecond)
	_, ts := newTestServer(t, Config{
		DB:     fig1DB(t, reach.DBConfig{Metrics: true}),
		Tracer: tracer,
	})
	get := func(accept, query string) (string, string) {
		req, _ := http.NewRequest("GET", ts.URL+"/metrics"+query, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET /metrics: status %d (%s)", resp.StatusCode, body)
		}
		return resp.Header.Get("Content-Type"), string(body)
	}

	// Warm the counters so families carry nonzero series, and wait for
	// the request's trace to finish: scrapes are not traced, so from here
	// on the document is stable.
	resp, err := http.Get(ts.URL + "/v1/reach?s=A&t=G")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for tracer.Stats().Finished < 1 {
		if time.Now().After(deadline) {
			t.Fatal("warm-up trace never finished")
		}
		time.Sleep(time.Millisecond)
	}

	ct, want := get("", "")
	if ct != obs.PromContentType {
		t.Fatalf("plain /metrics Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	for _, family := range []string{
		"# TYPE reach_server_accepted_total counter",
		"# TYPE reach_traces_started_total counter",
		"# TYPE reach_index_queries_total counter",
		`reach_route_queries_total{route="plain"} 1`,
	} {
		if !strings.Contains(want, family) {
			t.Fatalf("exposition missing %q:\n%s", family, want)
		}
	}
	for _, sel := range []struct{ accept, query string }{
		{"text/plain; version=0.0.4", ""},
		{"application/openmetrics-text; version=1.0.0", ""},
		{"application/json", ""},
		{"", "?format=prometheus"},
		{"", "?format=text"},
	} {
		ct, body := get(sel.accept, sel.query)
		if ct != obs.PromContentType || body != want {
			t.Fatalf("accept %q query %q: Content-Type %q, document differs from plain /metrics:\n%s",
				sel.accept, sel.query, ct, body)
		}
	}
}

func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof enabled = %d (%d bytes), want a 200 index", resp.StatusCode, len(body))
	}
}

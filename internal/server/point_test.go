package server

import (
	"bytes"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	reach "repro"
	"repro/internal/obs"
)

// TestPointRequestAllocs counts the heap allocations the server makes
// for one /v1/reach through its handler with reachserve's default
// telemetry: a request tracer and an access line through slog's
// TextHandler. What the test harness and the standard library cost on
// their own — the httptest request and recorder, the ServeMux match and
// the recorder's copy of the response — is counted on the same request
// routed to a handler that only writes the pre-encoded answer, and
// subtracted, so the bound does not depend on the toolchain. Before the point path was trimmed the
// server made 21 (12 without tracer and access log); a point request
// that again builds a deadline timer, encodes its answer, parses a form
// map or allocates its trace record's phases shows here.
func TestPointRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts")
	}
	const bound = 9
	s, err := New(Config{
		DB:        fig1DB(t, reach.DBConfig{Metrics: true}),
		Tracer:    obs.NewTracer(256, 250*time.Millisecond),
		AccessLog: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	harness := http.NewServeMux()
	harness.HandleFunc("/v1/reach", func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusOK)
		w.Write(reachBodies[1])
	})
	count := func(h http.Handler) float64 {
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/reach?s=0&t=4", nil))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), reachBodies[1]) {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		for i := 0; i < 300; i++ { // pools fill, and each of the ring's 256 slots gets its phase array
			serve()
		}
		return testing.AllocsPerRun(200, serve)
	}
	total, base := count(s.Handler()), count(harness)
	t.Logf("%.0f allocations per /v1/reach, %.0f of them the harness's", total, base)
	if got := total - base; got > bound {
		t.Fatalf("the server makes %.0f allocations per /v1/reach, want <= %d", got, bound)
	}
}

// TestReachBodyMatchesWriteJSON: the pre-encoded answer is the response
// writeJSON writes for the same value, on the wire — status,
// Content-Type, Content-Length and body.
func TestReachBodyMatchesWriteJSON(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/json/{v}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Reachable bool `json:"reachable"`
		}{r.PathValue("v") == "true"})
	})
	mux.HandleFunc("/reach/{v}", func(w http.ResponseWriter, r *http.Request) {
		writeReach(w, r.PathValue("v") == "true")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	get := func(path string) (int, string, string, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Content-Length"), string(body)
	}
	for _, v := range []string{"true", "false"} {
		ws, wct, wcl, wb := get("/json/" + v)
		gs, gct, gcl, gb := get("/reach/" + v)
		if gs != ws || gct != wct || gcl != wcl || gb != wb {
			t.Errorf("%s: writeReach %d %q %q %q, writeJSON %d %q %q %q", v, gs, gct, gcl, gb, ws, wct, wcl, wb)
		}
	}
}

// FuzzPointPair: whenever rawPair reads s and t in place, they are what
// r.FormValue returns, for any raw query, method and form body
// (url-encoded or multipart).
func FuzzPointPair(f *testing.F) {
	f.Add(uint8(0), "s=1&t=2", uint8(0), "")
	f.Add(uint8(0), "t=2&s=1&s=3", uint8(1), "s=9&t=9")
	f.Add(uint8(1), "s=&t", uint8(2), "s")
	f.Add(uint8(2), "s=1&t=2", uint8(1), "s=9&t=9")
	f.Add(uint8(0), "s=a%20b&t=c+d", uint8(0), "")
	f.Add(uint8(0), "s=1;t=2&t=3", uint8(0), "")
	f.Add(uint8(0), "=1&&s==&t=x=y", uint8(0), "")
	methods := []string{"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE"}
	f.Fuzz(func(t *testing.T, m uint8, rawQuery string, ct uint8, body string) {
		method := methods[int(m)%len(methods)]
		mk := func() *http.Request {
			r := &http.Request{
				Method: method,
				URL:    &url.URL{Path: "/v1/reach", RawQuery: rawQuery},
				Header: http.Header{},
				Body:   io.NopCloser(strings.NewReader(body)),
			}
			switch ct % 3 {
			case 1:
				r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			case 2:
				var sb strings.Builder
				mw := multipart.NewWriter(&sb)
				mw.WriteField("s", body)
				mw.WriteField("t", body)
				mw.Close()
				r.Header.Set("Content-Type", mw.FormDataContentType())
				r.Body = io.NopCloser(strings.NewReader(sb.String()))
			}
			return r
		}
		sTok, tTok, ok := rawPair(mk())
		if !ok {
			return
		}
		r := mk()
		if ws, wt := r.FormValue("s"), r.FormValue("t"); sTok != ws || tTok != wt {
			t.Fatalf("%s ?%s: in place s=%q t=%q, FormValue s=%q t=%q", method, rawQuery, sTok, tTok, ws, wt)
		}
	})
}

// TestRequestIDBounded: a caller's X-Request-Id over 128 bytes, or with a
// byte outside visible ASCII, is replaced by a generated ID (still echoed
// back), and no ring record keeps more than 128 bytes of ID.
func TestRequestIDBounded(t *testing.T) {
	tracer := obs.NewTracer(8, time.Nanosecond) // every trace also lands in the slow ring
	s, err := New(Config{DB: fig1DB(t, reach.DBConfig{}), Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	for name, id := range map[string]string{
		"200 bytes":    strings.Repeat("a", 200),
		"control byte": "abc\x01def",
		"space":        "abc def",
	} {
		req := httptest.NewRequest("GET", "/v1/reach?s=A&t=G", nil)
		req.Header.Set(requestIDHeader, id)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		got := rec.Header().Get(requestIDHeader)
		if got == "" || got == id || len(got) > obs.MaxRequestIDLen {
			t.Errorf("%s: echoed ID %q, want a generated one", name, got)
		}
	}
	req := httptest.NewRequest("GET", "/v1/reach?s=A&t=G", nil)
	kept := strings.Repeat("x", obs.MaxRequestIDLen)
	req.Header.Set(requestIDHeader, kept)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get(requestIDHeader); got != kept {
		t.Errorf("a %d-byte visible-ASCII ID came back as %q", len(kept), got)
	}
	snap := tracer.Snapshot()
	for _, ring := range [][]obs.TraceRecord{snap.Recent, snap.Slow} {
		for _, r := range ring {
			if len(r.ID) > obs.MaxRequestIDLen {
				t.Errorf("ring record holds a %d-byte ID", len(r.ID))
			}
		}
	}
	if len(snap.Recent) != 4 || len(snap.Slow) != 4 {
		t.Fatalf("rings hold %d recent and %d slow records, want 4 and 4", len(snap.Recent), len(snap.Slow))
	}
}

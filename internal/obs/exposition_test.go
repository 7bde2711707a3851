package obs_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestServerMetricsDocument scrapes plain /metrics — no Accept header, no
// query — from a server with every metrics source wired: the server's
// admission counters, a tracer, and a DB with the result cache and a WAL.
// The concatenated server + tracer + DB document must be
// one valid exposition, and every family in it must be catalogued in
// OBSERVABILITY.md with the type it is emitted under. Nothing else is a
// metrics surface: /debug/vars is gone, and the build-span tree is
// served on /admin/stats.
func TestServerMetricsDocument(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 40, M: 120, Seed: 5})
	db, err := reach.NewDB(g, reach.DBConfig{
		Metrics:   true,
		CacheSize: 64,
		Mutation: &reach.MutationConfig{
			WALPath:          filepath.Join(t.TempDir(), "doc.wal"),
			RebuildThreshold: -1,
			Fsync:            reach.FsyncNever,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, err := server.New(server.Config{DB: db, Tracer: obs.NewTracer(8, 250*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	// Warm every source: a repeated point query (cache miss then hit), a
	// batch, and a committed mutation.
	get("/v1/reach?s=0&t=39")
	get("/v1/reach?s=0&t=39")
	post("/v1/batch", `{"pairs":[{"s":0,"t":1},{"s":2,"t":3}]}`)
	post("/v1/mutate", `{"ops":[{"op":"add","s":39,"t":0}]}`)

	resp, doc := get("/metrics")
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != obs.PromContentType {
		t.Fatalf("/metrics: status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	samples := obs.CheckPromSyntax(t, doc)
	for series, want := range map[string]string{
		"reach_server_accepted_total":            "4",
		"reach_traces_started_total":             "4",
		"reach_cache_hits_total":                 "1",
		"reach_mutations_applied_total":          "1",
		"reach_wal_appends_total":                "1",
		"reach_serving_epoch":                    "2", // the boot's WAL replay, then the commit
		`reach_index_batches_total{index="BFL"}`: "1",
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %q, want %q", series, got, want)
		}
	}

	catalogue := promCatalogue(t)
	sc := bufio.NewScanner(strings.NewReader(doc))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || f[1] != "TYPE" {
			continue
		}
		typ, ok := catalogue[f[2]]
		switch {
		case !ok:
			t.Errorf("family %s (%s) is emitted but not catalogued in OBSERVABILITY.md", f[2], f[3])
		case typ != f[3]:
			t.Errorf("family %s: catalogued as %s, emitted as %s", f[2], typ, f[3])
		}
	}

	if resp, _ := get("/debug/vars"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars = %d, want 404", resp.StatusCode)
	}
	_, body := get("/admin/stats")
	var stats struct {
		Build []obs.PhaseSpan `json:"build"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/admin/stats: %v", err)
	}
	phases := map[string]bool{}
	for _, sp := range stats.Build {
		phases[sp.Name] = true
	}
	for _, want := range []string{"scc/condense", "index/build"} {
		if !phases[want] {
			t.Errorf("/admin/stats build = %+v, missing %s", stats.Build, want)
		}
	}
}

// promCatalogue reads OBSERVABILITY.md's family table: one row per
// family, "| `reach_…` | type | labels | meaning |".
func promCatalogue(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "| `reach_") {
			continue
		}
		cells := strings.Split(line, "|")
		out[strings.Trim(strings.TrimSpace(cells[1]), "`")] = strings.TrimSpace(cells[2])
	}
	if len(out) == 0 {
		t.Fatal("OBSERVABILITY.md has no family catalogue rows")
	}
	return out
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	reach "repro"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/obs"
)

// batchMaxPairs is the MaxBatch of the decode tests: small, so the seed
// corpus and the fuzzer reach the limit.
const batchMaxPairs = 4

// namedGraph is a 6-vertex path whose names exercise every branch of the
// reference resolution: plain names, a name that looks like an id too big
// for 32 bits, and a non-ASCII name.
func namedGraph(t testing.TB) *reach.Graph {
	t.Helper()
	b := reach.NewBuilder(0)
	names := []string{"A", "B", "in range", "99999999999", "Zürich", "t"}
	for i, name := range names {
		v := b.NamedVertex(name)
		if i > 0 {
			b.AddEdge(v-1, v)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refVertex is the vertex reference exactly as the handler decoded it
// before the one-pass scanner existed: two nested json.Unmarshal calls.
type refVertex struct{ raw string }

func (v *refVertex) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v.raw = s
		return nil
	}
	var n json.Number
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	v.raw = n.String()
	return nil
}

// referenceBatch is the semantic reference of /v1/batch: the handler as it
// was when encoding/json decoded every body and reflected every response
// (with the one message the early refusal changed). It returns the status,
// the response body, and the decoded pairs when it got that far.
func referenceBatch(db *reach.DB, limit int, body []byte) (int, string, []reach.Pair) {
	w := httptest.NewRecorder()
	g := db.Graph()
	var req struct {
		Pairs []struct {
			S refVertex `json:"s"`
			T refVertex `json:"t"`
		} `json:"pairs"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return w.Code, w.Body.String(), nil
	}
	if len(req.Pairs) > limit {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch has more than %d pairs", limit))
		return w.Code, w.Body.String(), nil
	}
	pairs := make([]reach.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		sv, err := vertexOf(g, p.S.raw)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("pair %d: %v", i, err))
			return w.Code, w.Body.String(), nil
		}
		tv, err := vertexOf(g, p.T.raw)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("pair %d: %v", i, err))
			return w.Code, w.Body.String(), nil
		}
		pairs[i] = reach.Pair{S: sv, T: tv}
	}
	out, err := db.BatchReachCtx(nil, pairs)
	if err != nil {
		writeErr(w, statusCode(err), firstLine(err))
		return w.Code, w.Body.String(), nil
	}
	writeJSON(w, http.StatusOK, batchResponse{Results: out})
	return w.Code, w.Body.String(), pairs
}

// batchDecodeSeeds is the seed corpus of FuzzBatchDecode; accept says
// whether the one-pass scanner must take the body itself (true) or hand
// it to encoding/json (false). The bodies that must be accepted are the
// documented grammar, so a scanner that declined everything would fail
// here, not just run slowly.
var batchDecodeSeeds = []struct {
	name, body string
	accept     bool
}{
	{"ids", `{"pairs":[{"s":0,"t":5},{"s":3,"t":1}]}`, true},
	{"names", `{"pairs":[{"s":"A","t":"B"},{"s":"in range","t":"t"}]}`, true},
	{"string ids", `{"pairs":[{"s":"0","t":"005"}]}`, true},
	{"id-like name", `{"pairs":[{"s":"99999999999","t":"t"}]}`, true},
	{"utf-8 name", `{"pairs":[{"s":"A","t":"Zürich"}]}`, true},
	{"whitespace", " {\n\t\"pairs\" : [ { \"s\" : 0 , \"t\" : 1 } ,\r\n { \"s\":1,\"t\":2 } ] } \n", true},
	{"reordered keys", `{"pairs":[{"t":5,"s":0},{"s":1,"t":"B"}]}`, true},
	{"empty pairs", `{"pairs":[]}`, true},
	{"self pair", `{"pairs":[{"s":2,"t":2}]}`, true},
	{"at the limit", `{"pairs":[{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1}]}`, true},

	{"escaped name", `{"pairs":[{"s":"\u0041","t":"in\u0020range"}]}`, false},
	{"escaped key", `{"pairs":[{"\u0073":0,"t":1}]}`, false},
	{"re-cased keys", `{"PAIRS":[{"S":0,"T":1}]}`, false},
	{"unknown key", `{"pairs":[{"s":0,"t":1,"w":7}],"note":"x"}`, false},
	{"duplicate key", `{"pairs":[{"s":0,"s":1,"t":2}]}`, false},
	{"duplicate pairs", `{"pairs":[{"s":0,"t":1}],"pairs":[{"s":1,"t":2}]}`, false},
	{"missing key", `{"pairs":[{"s":0}]}`, false},
	{"null pairs", `{"pairs":null}`, false},
	{"empty object", `{}`, false},
	{"trailing garbage", `{"pairs":[{"s":0,"t":1}]} trailing`, false},
	{"second document", `{"pairs":[{"s":0,"t":1}]}{"pairs":[]}`, false},
	{"float id", `{"pairs":[{"s":1.0,"t":2}]}`, false},
	{"exponent id", `{"pairs":[{"s":1e0,"t":2}]}`, false},
	{"negative id", `{"pairs":[{"s":-1,"t":2}]}`, false},
	{"leading zero", `{"pairs":[{"s":01,"t":2}]}`, false},
	{"null vertex", `{"pairs":[{"s":null,"t":2}]}`, false},
	{"bool vertex", `{"pairs":[{"s":true,"t":2}]}`, false},
	{"out of range", `{"pairs":[{"s":0,"t":6}]}`, false},
	{"huge id", `{"pairs":[{"s":0,"t":4294967296}]}`, false},
	{"unknown name", `{"pairs":[{"s":"nope","t":1}]}`, false},
	{"empty name", `{"pairs":[{"s":"","t":1}]}`, false},
	{"invalid utf-8", "{\"pairs\":[{\"s\":\"\xff\",\"t\":1}]}", false},
	{"control char", "{\"pairs\":[{\"s\":\"A\x01\",\"t\":1}]}", false},
	{"truncated", `{"pairs":[{"s":0,"t":`, false},
	{"not json", `pairs=0,1`, false},
	{"empty body", ``, false},
	{"array body", `[{"s":0,"t":1}]`, false},
	{"trailing comma", `{"pairs":[{"s":0,"t":1},]}`, false},

	{"whitespace between every token", " \t{ \"pairs\" \n: \r[ { \"s\" : 0 , \"t\" : \"B\" } , { \"t\"\t:\t5\t,\t\"s\"\t:\t1\t} ] } \n", true},
	{"t before s", `{"pairs":[{"t":1,"s":0}]}`, true},
	{"duplicate t", `{"pairs":[{"t":1,"t":2}]}`, false},
	{"key after both", `{"pairs":[{"s":0,"t":1,"s":2}]}`, false},
	{"id 0", `{"pairs":[{"s":0,"t":0}]}`, true},
	{"id 01", `{"pairs":[{"s":1,"t":01}]}`, false},
	{"id 2^32-1", `{"pairs":[{"s":4294967295,"t":1}]}`, false},
	{"id 2^32", `{"pairs":[{"s":1,"t":4294967296}]}`, false},
	{"string id 2^32", `{"pairs":[{"s":"4294967296","t":1}]}`, false},
	{"nine-digit id", `{"pairs":[{"s":123456789,"t":1}]}`, false},
	{"ten-digit id", `{"pairs":[{"s":1,"t":1000000000}]}`, false},
	{"name in digits", `{"pairs":[{"s":99999999999,"t":5}]}`, true},
	{"trailing comma in pair", `{"pairs":[{"s":0,"t":1,}]}`, false},
	{"trailing comma in body", `{"pairs":[{"s":0,"t":1}],}`, false},
	{"id at the end", `{"pairs":[{"s":0,"t":1`, false},
}

// FuzzBatchDecode pins the one-pass scanner to the encoding/json decoder
// it replaced: whenever the scanner accepts a body its pairs are the
// reference's pairs, and whatever it does with a body the request gets
// the reference's status and response bytes. The single sanctioned
// difference is the early refusal: a body that opens a pair past the limit
// is a 413 at once, where the reference would first have read the rest
// (and answered 400 had it found a syntax error there).
func FuzzBatchDecode(f *testing.F) {
	for _, seed := range batchDecodeSeeds {
		f.Add([]byte(seed.body))
	}
	f.Add([]byte(`{"pairs":[{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1}]}`))
	f.Add([]byte(`{"pairs":[{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1},]`))
	g := namedGraph(f)
	db, err := reach.NewDB(g, reach.DBConfig{})
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{DB: db, MaxBatch: batchMaxPairs})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body)))
		refStatus, refBody, refPairs := referenceBatch(db, batchMaxPairs, body)
		pairs, verdict := scanBatch(body, g, batchMaxPairs, nil)
		switch verdict {
		case scanOK:
			if refStatus != 200 || !reflect.DeepEqual(append([]reach.Pair{}, pairs...), append([]reach.Pair{}, refPairs...)) {
				t.Fatalf("scanner accepted %q as %v; reference: %d %s %v", body, pairs, refStatus, refBody, refPairs)
			}
		case scanTooMany:
			if refStatus != 413 && !(refStatus == 400 && strings.Contains(refBody, "bad batch body")) {
				t.Fatalf("scanner refused %q as too many; reference: %d %s", body, refStatus, refBody)
			}
			refStatus, refBody = 413, `{"error":"batch has more than 4 pairs"}`+"\n"
		}
		got := w.Body.String()
		if const400 := `{"error":"bad batch body: `; strings.HasPrefix(refBody, const400) && strings.HasPrefix(got, const400) {
			// encoding/json's message names the Go type it decoded into,
			// and the reference's is a copy: compare up to there.
			got, refBody = const400, const400
		}
		if w.Code != refStatus || got != refBody {
			t.Fatalf("body %q (verdict %d):\n got %d %s\nwant %d %s", body, verdict, w.Code, w.Body, refStatus, refBody)
		}
	})
}

// TestBatchDecodeVerdicts: the documented grammar is scanned in one pass,
// everything else is declined — on the seed corpus, which `go test` also
// replays through FuzzBatchDecode's equivalence check.
func TestBatchDecodeVerdicts(t *testing.T) {
	g := namedGraph(t)
	for _, seed := range batchDecodeSeeds {
		_, verdict := scanBatch([]byte(seed.body), g, batchMaxPairs, nil)
		if got := verdict == scanOK; got != seed.accept || verdict == scanTooMany {
			t.Errorf("%s: verdict %d, want accept=%v", seed.name, verdict, seed.accept)
		}
	}
}

func postBatch(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestBatchRefusedAtTheLimit: the 413 comes at pair MaxBatch+1, from
// either decoder, with one message — the scanner never reads what follows
// (here: bytes no JSON decoder would accept).
func TestBatchRefusedAtTheLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	const want = `{"error":"batch has more than 2 pairs"}` + "\n"
	for name, body := range map[string]string{
		"scanner":          `{"pairs":[{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1}]}`,
		"scanner, early":   `{"pairs":[{"s":0,"t":1},{"s":0,"t":1},{` + strings.Repeat("\x00", 1<<16),
		"encoding/json":    `{"pairs":[{"s":0,"t":1},{"s":0,"t":1},{"s":0,"t":1,"w":2}]}`,
		"limit before 400": `{"pairs":[{"s":0,"t":1},{"s":"Nope","t":1},{"s":0,"t":1}]}`,
	} {
		if status, got := postBatch(t, ts.URL, body); status != http.StatusRequestEntityTooLarge || got != want {
			t.Errorf("%s: %d %q, want 413 %q", name, status, got, want)
		}
	}
	if status, got := postBatch(t, ts.URL, `{"pairs":[{"s":0,"t":1},{"s":"Nope","t":1}]}`); status != 400 ||
		got != `{"error":"pair 1: unknown vertex \"Nope\""}`+"\n" {
		t.Errorf("unresolvable pair within the limit: %d %q", status, got)
	}
}

// TestBatchTelemetry: one /v1/batch is one batch and len(pairs) queries on
// the serving index's counters (it used to be invisible: the batch never
// touched the index), and its trace shows the decode, index/probe and
// encode phases.
func TestBatchTelemetry(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 300, M: 900, Seed: 4})
	db, err := reach.NewDB(g, reach.DBConfig{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DB: db, Tracer: obs.NewTracer(8, 0)})
	var body strings.Builder
	body.WriteString(`{"pairs":[`)
	const n = 500
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"s":%d,"t":%d}`, i*7%g.N(), i*13%g.N())
	}
	body.WriteString(`]}`)

	before, _ := db.MetricsSnapshot()
	for i := 0; i < 3; i++ {
		if status, got := postBatch(t, ts.URL, body.String()); status != 200 {
			t.Fatalf("batch: %d %s", status, got)
		}
	}
	after, _ := db.MetricsSnapshot()
	b, a := before.Indexes["BFL"], after.Indexes["BFL"]
	if a.Batches-b.Batches != 3 || a.BatchQueries-b.BatchQueries != 3*n || a.Queries-b.Queries != 3*n {
		t.Errorf("3 batches of %d: batches +%d, batch_queries +%d, queries +%d",
			n, a.Batches-b.Batches, a.BatchQueries-b.BatchQueries, a.Queries-b.Queries)
	}
	prom := httptest.NewRecorder()
	after.WriteProm(prom, "reach")
	if !strings.Contains(prom.Body.String(), `reach_index_batches_total{index="BFL"} 3`) {
		t.Errorf("prometheus exposition lacks the batch counter:\n%s", prom.Body)
	}

	snap := getJSON(t, ts.URL+"/debug/traces", 200)
	newest := snap["recent"].([]any)[0].(map[string]any)
	var names []string
	for _, p := range newest["phases"].([]any) {
		names = append(names, p.(map[string]any)["name"].(string))
	}
	if got := strings.Join(names, ","); got != "admission/wait,decode,index/probe,encode" {
		t.Errorf("batch trace phases = %s", got)
	}
}

// probeFaultSite is hit by faultyIndex on every probe.
const probeFaultSite = "test/index-probe"

// faultyIndex is a real index with a fault-injection site inside Reach.
type faultyIndex struct{ reach.Index }

func (f faultyIndex) Reach(s, t reach.V) bool {
	faultinject.Hit(probeFaultSite)
	return f.Index.Reach(s, t)
}

// TestBatchIndexPanicOverHTTP: an index that panics in the middle of a
// batch costs that request a 500 and the DB one count on `panics`; the
// server keeps serving and the next batch is answered.
func TestBatchIndexPanicOverHTTP(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 300, M: 900, Seed: 4})
	ix, err := reach.Build(reach.KindBFL, g, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := reach.NewDB(g, reach.DBConfig{PlainIndex: faultyIndex{ix}, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DB: db})
	var body strings.Builder
	body.WriteString(`{"pairs":[{"s":0,"t":1}`)
	for i := 1; i < 600; i++ {
		fmt.Fprintf(&body, `,{"s":%d,"t":%d}`, i%g.N(), i*11%g.N())
	}
	body.WriteString(`]}`)

	faultinject.Activate(&faultinject.Plan{Site: probeFaultSite, Kind: faultinject.Panic, After: 300})
	defer faultinject.Deactivate()
	status, got := postBatch(t, ts.URL, body.String())
	faultinject.Deactivate()
	if status != http.StatusInternalServerError || !strings.Contains(got, "index panic") || strings.Contains(got, "goroutine") {
		t.Fatalf("panicking batch: %d %s, want a one-line 500", status, got)
	}
	if snap, _ := db.MetricsSnapshot(); snap.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", snap.Panics)
	}
	if status, got := postBatch(t, ts.URL, body.String()); status != 200 || !strings.HasPrefix(got, `{"results":[`) {
		t.Fatalf("batch after the contained panic: %d %s", status, got)
	}
}

package reach

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/labelset"
	"repro/internal/obs"
	"repro/internal/tc"
)

// labelSet adapts a raw mask for tests.
func labelSet(mask uint64) labelset.Set { return labelset.Set(mask) }

func fig1DB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDB(Fig1Labeled(), DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func vertex(t *testing.T, db *DB, name string) V {
	t.Helper()
	v, ok := db.Graph().VertexByName(name)
	if !ok {
		t.Fatalf("no vertex %q", name)
	}
	return v
}

func TestDBPaperExamples(t *testing.T) {
	db := fig1DB(t)
	a, g := vertex(t, db, "A"), vertex(t, db, "G")
	l, b, m := vertex(t, db, "L"), vertex(t, db, "B"), vertex(t, db, "M")

	// §2.1: Qr(A, G) = true.
	if ok, err := db.Reach(a, g); err != nil || !ok {
		t.Errorf("Qr(A,G) = %v, %v; want true", ok, err)
	}
	// §2.2: Qr(A, G, (friendOf ∪ follows)*) = false.
	if ok, err := db.Query(a, g, "(friendOf|follows)*"); err != nil || ok {
		t.Errorf("Qr(A,G,(friendOf|follows)*) = %v, %v; want false", ok, err)
	}
	// §4.2: Qr(L, B, (worksFor·friendOf)*) = true.
	if ok, err := db.Query(l, b, "(worksFor.friendOf)*"); err != nil || !ok {
		t.Errorf("Qr(L,B,(worksFor.friendOf)*) = %v, %v; want true", ok, err)
	}
	// §4.1: L reaches M under worksFor alone.
	if ok, err := db.Query(l, m, "worksFor*"); err != nil || !ok {
		t.Errorf("Qr(L,M,worksFor*) = %v, %v; want true", ok, err)
	}
	// General constraint outside both fragments: product search.
	if ok, err := db.Query(a, m, "follows.worksFor.worksFor"); err != nil || !ok {
		t.Errorf("fixed-shape constraint = %v, %v; want true (A-L-C/K-M)", ok, err)
	}
	if ok, err := db.Query(a, m, "friendOf.worksFor"); err != nil || ok {
		t.Errorf("impossible fixed shape = %v, %v; want false", ok, err)
	}
}

func TestDBStarVsPlus(t *testing.T) {
	db := fig1DB(t)
	a := vertex(t, db, "A")
	// Star on a self query is trivially true; plus needs a real cycle —
	// Figure 1's reconstruction is acyclic, so plus must be false.
	if ok, _ := db.Query(a, a, "(friendOf|follows|worksFor)*"); !ok {
		t.Error("star self query should be true")
	}
	if ok, _ := db.Query(a, a, "(friendOf|follows|worksFor)+"); ok {
		t.Error("plus self query should be false on a DAG")
	}
	// Plus between distinct reachable vertices behaves like star here.
	d := vertex(t, db, "D")
	if ok, _ := db.Query(a, d, "(friendOf)+"); !ok {
		t.Error("Qr(A,D,friendOf+) should be true")
	}
}

func TestDBConcatenationPlus(t *testing.T) {
	db := fig1DB(t)
	l, b := vertex(t, db, "L"), vertex(t, db, "B")
	if ok, _ := db.Query(l, b, "(worksFor.friendOf)+"); !ok {
		t.Error("plus concatenation should be true (two full repeats)")
	}
	if ok, _ := db.Query(l, l, "(worksFor.friendOf)+"); ok {
		t.Error("plus self concatenation should be false on a DAG")
	}
}

func TestDBQueryAllowed(t *testing.T) {
	db := fig1DB(t)
	l, m := vertex(t, db, "L"), vertex(t, db, "M")
	if ok, err := db.QueryAllowed(l, m, 2); err != nil || !ok {
		t.Errorf("QueryAllowed(L,M,worksFor) = %v, %v", ok, err)
	}
	if ok, _ := db.QueryAllowed(l, m, 0); ok {
		t.Error("QueryAllowed(L,M,friendOf) should be false")
	}
}

func TestDBErrors(t *testing.T) {
	plain, err := NewDB(Fig1Plain(), DBConfig{Plain: KindPLL})
	if err != nil {
		t.Fatal(err)
	}
	// "x*" is label-insensitive and now served by the plain index; a
	// genuinely labeled constraint still fails on an unlabeled graph.
	if _, err := plain.Query(0, 1, "(x.y)*"); err == nil {
		t.Error("labeled constraint on unlabeled graph should fail")
	}
	if _, err := plain.Query(0, 1, "x.y"); err == nil {
		t.Error("fixed-shape constraint on unlabeled graph should fail")
	}
	if _, err := plain.QueryAllowed(0, 1, 0); err == nil {
		t.Error("QueryAllowed on unlabeled graph should fail")
	}
	labeled := fig1DB(t)
	if _, err := labeled.Query(0, 1, "(unknownLabel)*"); err == nil {
		t.Error("unknown label should fail")
	}
	if _, err := labeled.Query(0, 1, "((("); err == nil {
		t.Error("syntax error should fail")
	}
	if _, err := NewDB(Fig1Plain(), DBConfig{Plain: "bogus"}); err == nil {
		t.Error("bogus plain kind should fail")
	}
}

func TestDBReachPath(t *testing.T) {
	db := fig1DB(t)
	a, g := vertex(t, db, "A"), vertex(t, db, "G")
	p, err := db.ReachPath(a, g)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p[0] != a || p[len(p)-1] != g {
		t.Fatalf("ReachPath(A,G) = %v", p)
	}
	// The shortest witness is the paper's (A, D, H, G).
	if len(p) != 4 {
		t.Errorf("expected the 4-vertex path A,D,H,G; got %d vertices", len(p))
	}
	if p, err := db.ReachPath(g, a); err != nil || p != nil {
		t.Errorf("path for an unreachable pair: %v, %v", p, err)
	}
}

func TestDBQueryPath(t *testing.T) {
	db := fig1DB(t)
	l, b := vertex(t, db, "L"), vertex(t, db, "B")
	edges, err := db.QueryPath(l, b, "(worksFor.friendOf)*")
	if err != nil || edges == nil {
		t.Fatalf("QueryPath = %v, %v", edges, err)
	}
	names := []string{}
	for _, e := range edges {
		names = append(names, db.Graph().LabelName(e.Label))
	}
	// The witness spells (worksFor, friendOf) repeats — the paper's MR.
	for i, n := range names {
		want := "worksFor"
		if i%2 == 1 {
			want = "friendOf"
		}
		if n != want {
			t.Fatalf("witness labels %v do not repeat the MR", names)
		}
	}
	if _, err := db.QueryPath(l, b, "(((("); err == nil {
		t.Error("syntax error should fail")
	}
	plain, _ := NewDB(Fig1Plain(), DBConfig{})
	if _, err := plain.QueryPath(0, 1, "x*"); err == nil {
		t.Error("unlabeled graph should fail")
	}
}

func TestDBRegisterConstraint(t *testing.T) {
	db := fig1DB(t)
	a, m := vertex(t, db, "A"), vertex(t, db, "M")
	alpha := "follows.(worksFor)+" // general class: normally product search
	before, err := db.Query(a, m, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterConstraint(alpha); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(a, m, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if before != after || !after {
		t.Fatalf("registered-index answer diverged: %v vs %v", before, after)
	}
	// Equivalent spelling (same normalized AST) also routes to the index.
	if got, _ := db.Query(a, m, "follows . (worksFor)+"); got != after {
		t.Error("normalized routing failed")
	}
	// Exhaustive agreement between registered index and product search.
	for s := V(0); int(s) < db.Graph().N(); s++ {
		for tt := V(0); int(tt) < db.Graph().N(); tt++ {
			viaIndex, _ := db.Query(s, tt, alpha)
			fresh := fig1DB(t) // no registration: product search
			viaSearch, _ := fresh.Query(s, tt, alpha)
			if viaIndex != viaSearch {
				t.Fatalf("(%d,%d): index %v, search %v", s, tt, viaIndex, viaSearch)
			}
		}
	}
	if err := db.RegisterConstraint("((("); err == nil {
		t.Error("syntax error should fail")
	}
	plain, _ := NewDB(Fig1Plain(), DBConfig{})
	if err := plain.RegisterConstraint("x*"); err == nil {
		t.Error("unlabeled graph should fail")
	}
}

func TestDBStats(t *testing.T) {
	db := fig1DB(t)
	st := db.Stats()
	if len(st) != 3 {
		t.Fatalf("stats entries = %d, want 3 (plain+LCR+RLC)", len(st))
	}
	for name, s := range st {
		if s.Bytes < 0 {
			t.Errorf("%s: negative bytes", name)
		}
	}
}

func TestDBUnlabeledTrivialConstraints(t *testing.T) {
	db, err := NewDB(Fig1Plain(), DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	// Any alternation-star is label-insensitive: Query must agree with
	// Reach on every pair.
	for s := V(0); int(s) < g.N(); s++ {
		for tt := V(0); int(tt) < g.N(); tt++ {
			got, err := db.Query(s, tt, "(a|b)*")
			if err != nil {
				t.Fatalf("Query(%d,%d,(a|b)*): %v", s, tt, err)
			}
			want, rerr := db.Reach(s, tt)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if got != want {
				t.Fatalf("Query(%d,%d,(a|b)*) = %v, Reach = %v", s, tt, got, want)
			}
		}
	}
	// Single-label star behaves the same.
	if got, err := db.Query(0, 0, "x*"); err != nil || !got {
		t.Errorf("Query(0,0,x*) = %v, %v; want true", got, err)
	}
	// Plus needs at least one edge: self-plus is false on a DAG.
	if got, err := db.Query(0, 0, "(a|b)+"); err != nil || got {
		t.Errorf("Query(0,0,(a|b)+) = %v, %v; want false", got, err)
	}
	// Plus between distinct vertices agrees with Reach (every nonempty
	// path has length >= 1 already).
	for s := V(0); int(s) < g.N(); s++ {
		for tt := V(0); int(tt) < g.N(); tt++ {
			if s == tt {
				continue
			}
			got, err := db.Query(s, tt, "e+")
			if err != nil {
				t.Fatal(err)
			}
			want, rerr := db.Reach(s, tt)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if got != want {
				t.Fatalf("Query(%d,%d,e+) = %v, Reach = %v", s, tt, got, want)
			}
		}
	}
	// Genuinely labeled constraints error, with a message that names the
	// actual problem rather than the blanket "use Reach".
	if _, err := db.Query(0, 1, "(a.b)*"); err == nil ||
		!strings.Contains(err.Error(), "depends on edge labels") {
		t.Errorf("labeled constraint error = %v", err)
	}
	// Syntax errors still surface as parse errors.
	if _, err := db.Query(0, 1, "((("); err == nil {
		t.Error("syntax error should fail on unlabeled graphs too")
	}
}

// TestDBMetricsDecidedFallback asserts that a batch of mixed positive and
// negative queries through an instrumented Partial plain index (BFL)
// yields exactly the decided/fallback split TryReach predicts, plus the
// right positive/negative and routing counts and build-phase spans.
func TestDBMetricsDecidedFallback(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 400, M: 1200, Seed: 11})
	db, err := NewDB(g, DBConfig{Plain: KindBFL, Metrics: true, Options: Options{Bits: 64}})
	if err != nil {
		t.Fatal(err)
	}
	oracle := tc.NewClosure(g)
	probe, ok := db.cur.Load().ix.(PartialIndex)
	if !ok {
		t.Fatal("instrumented BFL should still expose TryReach")
	}
	qs := gen.QueriesWithRatio(g, 500, 0.5, 12)
	var wantPos, wantNeg, wantDecided, wantFallback int64
	for _, q := range qs {
		if oracle.Reach(q.S, q.T) {
			wantPos++
		} else {
			wantNeg++
		}
		if _, decided := probe.TryReach(q.S, q.T); decided {
			wantDecided++
		} else {
			wantFallback++
		}
		if got, rerr := db.Reach(q.S, q.T); rerr != nil || got != oracle.Reach(q.S, q.T) {
			t.Fatalf("Reach(%d,%d) wrong (err %v)", q.S, q.T, rerr)
		}
	}
	snap, ok := db.MetricsSnapshot()
	if !ok {
		t.Fatal("metrics enabled but no snapshot")
	}
	is, ok := snap.Indexes["BFL"]
	if !ok {
		t.Fatalf("no BFL index metrics; have %v", snap.Indexes)
	}
	if is.Queries != int64(len(qs)) {
		t.Errorf("queries = %d, want %d", is.Queries, len(qs))
	}
	if is.Positive != wantPos || is.Negative != wantNeg {
		t.Errorf("positive/negative = %d/%d, want %d/%d", is.Positive, is.Negative, wantPos, wantNeg)
	}
	if is.Decided != wantDecided || is.Fallback != wantFallback {
		t.Errorf("decided/fallback = %d/%d, want %d/%d", is.Decided, is.Fallback, wantDecided, wantFallback)
	}
	if wantFallback > 0 && is.Visited == 0 {
		t.Error("fallbacks occurred but no visited vertices recorded")
	}
	// Latency is sampled (1 in 32; the very first query is always timed),
	// so the histogram holds some — but not necessarily all — queries.
	if c := is.Latency.Count; c == 0 || c > int64(len(qs)) {
		t.Errorf("latency count = %d, want in 1..%d", c, len(qs))
	}
	// Routing: everything above went through the plain route.
	if rs := snap.Routes[obs.RoutePlain.String()]; rs.Queries != int64(len(qs)) {
		t.Errorf("plain route queries = %d, want %d", rs.Queries, len(qs))
	}
	// Build phases: SCC condensation, the lifted build, and BFL's own
	// internal phases must all be present and named.
	names := map[string]bool{}
	for _, sp := range snap.Build {
		names[sp.Name] = true
	}
	for _, want := range []string{"scc/condense", "index/build", "bfl/levels", "bfl/filters-out"} {
		if !names[want] {
			t.Errorf("missing build phase %q in %v", want, names)
		}
	}
}

// TestDBMetricsRouting drives one query through every routing class of a
// labeled DB and checks the per-class counters.
func TestDBMetricsRouting(t *testing.T) {
	db, err := NewDB(Fig1Labeled(), DBConfig{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.Graph().VertexByName("A")
	g, _ := db.Graph().VertexByName("G")
	l, _ := db.Graph().VertexByName("L")
	b, _ := db.Graph().VertexByName("B")
	m, _ := db.Graph().VertexByName("M")

	db.Reach(a, g)                              // plain
	db.Query(a, g, "(friendOf|follows)*")       // lcr
	db.Query(l, b, "(worksFor.friendOf)*")      // rlc
	db.Query(a, m, "follows.worksFor.worksFor") // product
	if err := db.RegisterConstraint("follows.(worksFor)+"); err != nil {
		t.Fatal(err)
	}
	db.Query(a, m, "follows.(worksFor)+") // registered
	db.Query(a, m, "(((")                 // parse error

	snap, _ := db.MetricsSnapshot()
	for route, want := range map[string]int64{
		"plain": 1, "lcr": 1, "rlc": 1, "product": 1, "registered": 1,
	} {
		if got := snap.Routes[route].Queries; got != want {
			t.Errorf("route %s queries = %d, want %d", route, got, want)
		}
	}
	if snap.Errors != 1 {
		t.Errorf("errors = %d, want 1", snap.Errors)
	}
	if len(snap.Build) < 3 {
		t.Errorf("expected >=3 build phases, got %v", snap.Build)
	}
}

// TestBatchReachInstrumented checks that batches over an instrumented
// index record batch-level and per-query counters.
func TestBatchReachInstrumented(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 200, M: 600, Seed: 21})
	raw, err := Build(KindBFL, g, Options{Bits: 64})
	if err != nil {
		t.Fatal(err)
	}
	var m obs.IndexMetrics
	ix := core.Instrument(raw, g, &m)
	qs := gen.Queries(g, 100, 22)
	pairs := make([]Pair, len(qs))
	for i, q := range qs {
		pairs[i] = Pair{S: q.S, T: q.T}
	}
	got, err := BatchReach(ix, g, pairs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if got[i] != q.Want {
			t.Fatalf("batch answer %d wrong", i)
		}
	}
	s := m.Snapshot()
	if s.Batches != 1 || s.BatchQueries != int64(len(pairs)) {
		t.Errorf("batches/batch_queries = %d/%d, want 1/%d", s.Batches, s.BatchQueries, len(pairs))
	}
	if s.Queries != int64(len(pairs)) {
		t.Errorf("queries = %d, want %d", s.Queries, len(pairs))
	}
	if s.Decided+s.Fallback != s.Queries {
		t.Errorf("decided+fallback = %d, want %d", s.Decided+s.Fallback, s.Queries)
	}
}

func TestDBAlternativePlainAndLCRKinds(t *testing.T) {
	for _, cfg := range []DBConfig{
		{Plain: KindGRAIL, LCR: LCRLandmark, Options: Options{K: 4}},
		{Plain: KindTOL, LCR: LCRZouGTC},
		{Plain: KindPathTree, LCR: LCRJinTree},
	} {
		db, err := NewDB(Fig1Labeled(), cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		a, _ := db.Graph().VertexByName("A")
		g, _ := db.Graph().VertexByName("G")
		if ok, rerr := db.Reach(a, g); rerr != nil || !ok {
			t.Errorf("%+v: Qr(A,G) wrong (%v, %v)", cfg, ok, rerr)
		}
		if ok, _ := db.Query(a, g, "(friendOf|follows)*"); ok {
			t.Errorf("%+v: LCR answer wrong", cfg)
		}
	}
}

// TestReachObserversSeeEveryQuery: a DB with nothing watching its plain
// queries answers them straight from the index, so each observer, on
// alone, must still see every DB.Reach: N calls give N plain-route
// observations with Metrics, N cache lookups with a cache, and N traces
// with an index/probe phase when a DBConfig{} DB is asked through a
// traced context.
func TestReachObserversSeeEveryQuery(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 500, M: 1500, Seed: 31})
	oracle := tc.NewClosure(g)
	const n = 200
	for _, c := range []struct {
		name   string
		cfg    DBConfig
		traced bool
		seen   func(db *DB, tracer *obs.Tracer) int64
	}{
		{"metrics", DBConfig{Metrics: true}, false, func(db *DB, _ *obs.Tracer) int64 {
			snap, _ := db.MetricsSnapshot()
			return snap.Routes[obs.RoutePlain.String()].Queries
		}},
		{"cache", DBConfig{CacheSize: 64}, false, func(db *DB, _ *obs.Tracer) int64 {
			st, _ := db.CacheStats()
			return st.Hits + st.Misses
		}},
		{"tracing", DBConfig{}, true, func(db *DB, tracer *obs.Tracer) int64 {
			var probed int64
			for _, rec := range tracer.Snapshot().Recent {
				for _, p := range rec.Phases {
					if p.Name == "index/probe" {
						probed++
						break
					}
				}
			}
			return probed
		}},
	} {
		db, err := NewDB(g, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tracer := obs.NewTracer(n, 0)
		for i := 0; i < n; i++ {
			s, tt := V(i*7%g.N()), V(i*13%g.N())
			var got bool
			var err error
			if c.traced {
				tr := tracer.Start("")
				got, err = db.ReachCtx(obs.WithTrace(context.Background(), tr), s, tt)
				tracer.Finish(tr)
			} else {
				got, err = db.Reach(s, tt)
			}
			if err != nil || got != oracle.Reach(s, tt) {
				t.Fatalf("%s: Reach(%d,%d) = %v, %v; want %v", c.name, s, tt, got, err, oracle.Reach(s, tt))
			}
		}
		if seen := c.seen(db, tracer); seen != n {
			t.Errorf("%s: %d of %d queries observed", c.name, seen, n)
		}
	}
}

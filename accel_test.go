package reach

// Tests for the query-path acceleration layer: the shared condensation
// memo (condense once per DB, however many DAG-only indexes it builds),
// the bit-parallel index-free batch path, and the sharded query-result
// cache (consistency against the exact oracles, including on degraded
// routes, plus eviction accounting).

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/labelset"
	"repro/internal/tc"
)

// TestBatchReachNilIndexMatchesOracle proves the nil-index bit-parallel
// path answers exactly like the closure oracle on both DAGs and cyclic
// graphs, at every worker count (block scatter must be deterministic and
// race-free — run under -race).
func TestBatchReachNilIndexMatchesOracle(t *testing.T) {
	graphs := map[string]*Graph{
		"dag":    gen.RandomDAG(gen.Config{N: 400, M: 1600, Seed: 21}),
		"cyclic": gen.ErdosRenyi(gen.Config{N: 300, M: 1500, Seed: 22}),
	}
	for name, g := range graphs {
		oracle := tc.NewClosure(g)
		rng := rand.New(rand.NewSource(23))
		pairs := make([]Pair, 1000) // > 15 blocks of 64, plus a ragged tail
		for i := range pairs {
			pairs[i] = Pair{S: V(rng.Intn(g.N())), T: V(rng.Intn(g.N()))}
		}
		pairs[17] = Pair{S: pairs[17].S, T: pairs[17].S} // self pair inside a block
		for _, workers := range []int{0, 1, 2, 7, 64} {
			got, err := BatchReach(nil, g, pairs, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for i, p := range pairs {
				if got[i] != oracle.Reach(p.S, p.T) {
					t.Fatalf("%s workers=%d: pair %d (%d→%d) = %v, oracle disagrees",
						name, workers, i, p.S, p.T, got[i])
				}
			}
		}
	}
}

// TestBatchReachCtx pins batchReach's context contract, the one
// DB.BatchReachCtx serves, on both the indexed and the bit-parallel path:
// a live context changes nothing, a canceled one returns its error and no
// results.
func TestBatchReachCtx(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 200, M: 600, Seed: 24})
	ix, err := Build(KindBFL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]Pair, 300)
	rng := rand.New(rand.NewSource(25))
	for i := range pairs {
		pairs[i] = Pair{S: V(rng.Intn(g.N())), T: V(rng.Intn(g.N()))}
	}
	want, err := BatchReach(ix, g, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, index := range []Index{ix, nil} {
		got, err := batchReach(context.Background(), index, g, pairs, 2)
		if err != nil {
			t.Fatalf("live ctx: %v", err)
		}
		for i := range pairs {
			if got[i] != want[i] {
				t.Fatalf("ctx path disagrees with plain path at %d", i)
			}
		}
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if out, err := batchReach(canceled, index, g, pairs, 2); err == nil || out != nil {
			t.Fatalf("canceled ctx: out=%v err=%v, want nil results and error", out, err)
		}
	}
}

// TestNewDBCondensesOnce is the tentpole's acceptance check: four
// DAG-only plain indexes — the DB's own and three more built over its memo
// (DB.Prepared passed as Options.Prepared) — run the SCC condensation
// exactly once: one cached=false "scc/condense" span, all later ones
// cached=true, and the memo reports the hits.
func TestNewDBCondensesOnce(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 300, M: 1200, Seed: 26})
	db, err := NewDB(g, DBConfig{Plain: KindBFL, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	built := map[Kind]Index{}
	built[KindBFL], _ = db.PlainIndex(KindBFL)
	for _, kind := range []Kind{KindFeline, KindPReaCH, KindGRAIL} {
		if built[kind], err = Build(kind, g, Options{Prepared: db.Prepared(), Spans: &db.Metrics().Build}); err != nil {
			t.Fatal(err)
		}
	}
	var computed, cached int
	for _, span := range db.Metrics().Build.Snapshot() {
		if span.Name != "scc/condense" {
			continue
		}
		if span.Cached {
			cached++
		} else {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("condensation computed %d times, want exactly 1", computed)
	}
	if cached != 3 {
		t.Fatalf("condensation cache hits in spans = %d, want 3", cached)
	}
	if hits := db.Prepared().Hits(); hits != 3 {
		t.Fatalf("Prepared.Hits() = %d, want 3", hits)
	}
	// Every one of them must be a real, queryable index.
	oracle := tc.NewClosure(g)
	for kind, ix := range built {
		if ix == nil {
			t.Fatalf("no %s index", kind)
		}
		for s := V(0); s < 50; s += 7 {
			for tt := V(0); tt < 50; tt += 5 {
				if ix.Reach(s, tt) != oracle.Reach(s, tt) {
					t.Fatalf("%s disagrees with oracle on (%d,%d)", kind, s, tt)
				}
			}
		}
	}
}

// TestPreparedWrongGraph pins the fail-fast on a memo bound to a different
// graph: silently reusing a foreign condensation would answer against the
// wrong component structure.
func TestPreparedWrongGraph(t *testing.T) {
	g1 := gen.RandomDAG(gen.Config{N: 50, M: 120, Seed: 27})
	g2 := gen.RandomDAG(gen.Config{N: 50, M: 120, Seed: 28})
	if _, err := Build(KindBFL, g1, Options{Prepared: Prepare(g2)}); err == nil {
		t.Fatal("Build accepted a Prepared bound to a different graph")
	}
}

// dbOracleQueries runs a mixed hot-pair workload against a DB and the
// exact oracles, failing on the first disagreement. Keys repeat heavily so
// a caching DB serves most answers from the cache.
func dbOracleQueries(t *testing.T, db *DB, g *Graph, oracle *tc.Oracle, rounds int) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	type q struct{ s, t V }
	hot := make([]q, 24)
	for i := range hot {
		hot[i] = q{V(rng.Intn(g.N())), V(rng.Intn(g.N()))}
	}
	for r := 0; r < rounds; r++ {
		p := hot[rng.Intn(len(hot))]
		switch rng.Intn(4) {
		case 0:
			got, err := db.Reach(p.s, p.t)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracle.Reach(p.s, p.t); got != want {
				t.Fatalf("round %d: Reach(%d,%d) = %v, oracle %v", r, p.s, p.t, got, want)
			}
		case 1:
			got, err := db.Query(p.s, p.t, "(l0|l1)*")
			if err != nil {
				t.Fatal(err)
			}
			mask := labelset.Set(0b11)
			if want := oracle.ReachLC(p.s, p.t, mask); got != want {
				t.Fatalf("round %d: Query(%d,%d,(a|b)*) = %v, oracle %v", r, p.s, p.t, got, want)
			}
		case 2:
			got, err := db.Query(p.s, p.t, "(l0|l2)+")
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.ReachLC(p.s, p.t, labelset.Set(0b101))
			if p.s == p.t {
				// plus semantics: the empty path does not witness (…)+.
				want = db.g.Labeled() && plusSelf(db, p.s, 0b101)
			}
			if got != want {
				t.Fatalf("round %d: Query(%d,%d,(a|c)+) = %v, want %v", r, p.s, p.t, got, want)
			}
		case 3:
			got, err := db.Query(p.s, p.t, "(l0.l1)*")
			if err != nil {
				t.Fatal(err)
			}
			if want := oracle.ReachRLC(p.s, p.t, []Label{0, 1}, true); got != want {
				t.Fatalf("round %d: Query(%d,%d,(a.b)*) = %v, oracle %v", r, p.s, p.t, got, want)
			}
		}
	}
}

// plusSelf recomputes (mask)+ for s == t by the definition: some allowed
// out-edge leads to a vertex that star-reaches s.
func plusSelf(db *DB, s V, mask uint64) bool {
	succ := db.g.Succ(s)
	labs := db.g.SuccLabels(s)
	for i, w := range succ {
		if mask&(1<<uint(labs[i])) == 0 {
			continue
		}
		if w == s {
			return true
		}
		if ok, _ := db.Query(w, s, "(l0|l2)*"); ok {
			return true
		}
	}
	return false
}

// TestDBCacheConsistency interleaves cached DB queries with the exact
// oracles over a hot pair set: every answer must match, the cache must
// actually serve hits, and a cache-disabled DB must agree query-for-query.
func TestDBCacheConsistency(t *testing.T) {
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: 70, M: 300, Seed: 30}), 3, 0.7, 30)
	oracle := tc.NewOracle(g)
	db, err := NewDB(g, DBConfig{CacheSize: 4096, Metrics: true, Options: Options{MaxSeq: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dbOracleQueries(t, db, g, oracle, 800)
	snap, ok := db.CacheStats()
	if !ok {
		t.Fatal("CacheStats reports cache disabled")
	}
	if snap.Hits == 0 || snap.Misses == 0 {
		t.Fatalf("hot workload should produce hits and misses, got %+v", snap)
	}
	if snap.Entries == 0 || snap.Entries > snap.Capacity {
		t.Fatalf("entries %d outside (0, capacity %d]", snap.Entries, snap.Capacity)
	}
	// The metrics snapshot must carry the same counters.
	ms, ok := db.MetricsSnapshot()
	if !ok || ms.Cache == nil {
		t.Fatal("metrics snapshot missing cache section")
	}
	if ms.Cache.Hits < snap.Hits {
		t.Fatalf("metrics cache hits %d < CacheStats hits %d", ms.Cache.Hits, snap.Hits)
	}
	// An uncached DB must be query-for-query identical (the cache is
	// invisible except in latency).
	plain, err := NewDB(g, DBConfig{Options: Options{MaxSeq: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.CacheStats(); ok {
		t.Fatal("CacheStats should report disabled with CacheSize 0")
	}
	dbOracleQueries(t, plain, g, oracle, 400)
}

// TestDBCacheDegradedRoute proves cache and degraded serving compose: with
// the LCR build killed by fault injection, alternation queries run online,
// get cached, and still match the oracle on every repeat.
func TestDBCacheDegradedRoute(t *testing.T) {
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: 60, M: 240, Seed: 33}), 3, 0.7, 33)
	oracle := tc.NewOracle(g)
	faultinject.Activate(&faultinject.Plan{Site: "build/lcr/p2h", Kind: faultinject.Panic, After: 3})
	db, err := NewDB(g, DBConfig{CacheSize: 1024, Degraded: true, Options: Options{MaxSeq: 2}})
	faultinject.Deactivate()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.DegradedRoutes()["lcr"]; !ok {
		t.Fatal("LCR route should be degraded")
	}
	dbOracleQueries(t, db, g, oracle, 600)
	snap, _ := db.CacheStats()
	if snap.Hits == 0 {
		t.Fatal("degraded route should still serve cache hits")
	}
}

// TestDBCacheEviction drives more distinct keys than the cache holds and
// checks the CLOCK accounting: evictions happen, entries stay bounded, and
// answers stay correct throughout.
func TestDBCacheEviction(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 200, M: 700, Seed: 34})
	oracle := tc.NewClosure(g)
	db, err := NewDB(g, DBConfig{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 4000; i++ {
		s, tt := V(rng.Intn(g.N())), V(rng.Intn(g.N()))
		got, err := db.Reach(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		if got != oracle.Reach(s, tt) {
			t.Fatalf("Reach(%d,%d) wrong under eviction pressure", s, tt)
		}
	}
	snap, _ := db.CacheStats()
	if snap.Evictions == 0 {
		t.Fatal("4000 distinct-heavy queries through 64 entries must evict")
	}
	if snap.Entries > snap.Capacity {
		t.Fatalf("entries %d exceeds capacity %d", snap.Entries, snap.Capacity)
	}
}

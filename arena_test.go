package reach

// The query arena (internal/scratch) through the whole library: no
// allocation per fallback query or overlay read, no stale visited bit in a
// reused arena, and one pool shared by every kind of search at once.

import (
	"context"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/labelset"
	"repro/internal/regexpath"
	"repro/internal/tc"
	"repro/internal/traversal"
)

// fallbackPairs draws positive pairs a few hops apart and keeps those the
// DB's index (metrics on) does not decide from its labels alone.
func fallbackPairs(t testing.TB, db *DB, g *Graph, want int, seed int64) []Pair {
	t.Helper()
	fallbacks := func() int64 {
		snap, _ := db.MetricsSnapshot()
		return snap.Indexes[db.cur.Load().ix.Name()].Fallback
	}
	rng := rand.New(rand.NewSource(seed))
	var pairs []Pair
	for tries := 0; len(pairs) < want; tries++ {
		if tries > 1000*want {
			t.Fatalf("found %d of %d fallback pairs", len(pairs), want)
		}
		s := V(rng.Intn(g.N()))
		v := s
		for hop := 0; hop < 3 && g.OutDegree(v) > 0; hop++ {
			v = g.Succ(v)[rng.Intn(g.OutDegree(v))]
		}
		before := fallbacks()
		if ok, err := db.Reach(s, v); err != nil || !ok {
			t.Fatalf("Reach(%d,%d) = %v, %v along a path", s, v, ok, err)
		}
		if fallbacks() > before {
			pairs = append(pairs, Pair{S: s, T: v})
		}
	}
	return pairs
}

// TestFallbackReachZeroAlloc: on a 10⁶-vertex DAG a DB.Reach that falls
// back to the guided DFS allocates nothing at steady state, both through
// the observed path (Metrics) and straight to the probe (DBConfig{}).
func TestFallbackReachZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; zero-alloc cannot hold")
	}
	if testing.Short() {
		t.Skip("builds a 10⁶-vertex index")
	}
	g := gen.RandomDAG(gen.Config{N: 1_000_000, M: 4_000_000, Seed: 21})
	observed, err := NewDB(g, DBConfig{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	// The same build falls back on the same pairs in both DBs.
	pairs := fallbackPairs(t, observed, g, 64, 22)
	plain, err := NewDB(g, DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, db := range map[string]*DB{"Metrics": observed, "DBConfig{}": plain} {
		allocs := testing.AllocsPerRun(50, func() {
			for _, p := range pairs {
				db.Reach(p.S, p.T)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %d fallback DB.Reach calls allocate %.1f objects, want 0", name, len(pairs), allocs)
		}
	}
}

// TestOverlayReadZeroAlloc: a DB.Reach over a pinned 2048-edge overlay —
// adds only (the anchor search) and adds plus removes (the overlaid BFS)
// — allocates nothing at steady state.
func TestOverlayReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; zero-alloc cannot hold")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the pool's arenas
	g := gen.RandomDAG(gen.Config{N: 20_000, M: 40_000, Seed: 23})
	edges := g.EdgeList()
	for _, removes := range []int{0, 1024} {
		db := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, false)
		rng := rand.New(rand.NewSource(24))
		ops := make([]EdgeOp, 0, 2048)
		for _, i := range rng.Perm(len(edges))[:removes] {
			ops = append(ops, EdgeOp{Remove: true, From: edges[i].From, To: edges[i].To})
		}
		for len(ops) < 2048 {
			ops = append(ops, EdgeOp{From: V(rng.Intn(g.N())), To: V(rng.Intn(g.N()))})
		}
		if err := db.Mutate(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
		if ms, _ := db.MutationStats(); ms.OverlayRemoved != removes || ms.OverlayAdded < 2000-removes {
			t.Fatalf("overlay +%d/-%d after %d removes and %d adds", ms.OverlayAdded, ms.OverlayRemoved, removes, 2048-removes)
		}
		pairs := make([]Pair, 16)
		for i := range pairs {
			pairs[i] = Pair{S: V(rng.Intn(g.N())), T: V(rng.Intn(g.N()))}
		}
		read := func() {
			for _, p := range pairs {
				db.Reach(p.S, p.T)
			}
		}
		read() // warm the arenas
		if allocs := testing.AllocsPerRun(10, read); allocs != 0 {
			t.Errorf("overlay -%d: %d reads allocate %.1f objects, want 0", removes, len(pairs), allocs)
		}
	}
}

// TestReusedArenaStaysExact runs 10⁴ mixed queries on a 10⁵-vertex DAG
// through one reused arena (one goroutine, GC off: every search below gets
// the arena the one before it dirtied) against a ground truth that takes a
// fresh visited set per query — a missed reset is a wrong answer here.
func TestReusedArenaStaysExact(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	g := gen.RandomDAG(gen.Config{N: 100_000, M: 150_000, Seed: 25})
	db, err := NewDB(g, DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	positives := 0
	for q := 0; q < 10_000; q++ {
		s := V(rng.Intn(g.N()))
		tt := V(rng.Intn(g.N()))
		if q%2 == 0 { // uniform pairs are almost all negative: walk to a positive
			tt = s
			for hop := rng.Intn(12); hop > 0 && g.OutDegree(tt) > 0; hop-- {
				tt = g.Succ(tt)[rng.Intn(g.OutDegree(tt))]
			}
		}
		want := traversal.ReachableFromInto(g, s, bitset.New(g.N())).Test(int(tt))
		if want {
			positives++
		}
		got, err := db.Reach(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]bool{
			"DB.Reach": got,
			"BFS":      traversal.BFS(g, s, tt),
			"DFS":      traversal.DFS(g, s, tt),
			"BiBFS":    traversal.BiBFS(g, s, tt),
		} {
			if got != want {
				t.Fatalf("query %d: %s(%d,%d) = %v, want %v", q, name, s, tt, got, want)
			}
		}
	}
	if positives < 2000 || positives > 8000 {
		t.Fatalf("%d of 10000 queries positive: not a mix", positives)
	}
}

// TestArenaPoolSharedAcrossSearches: 8 goroutines draw from the one pool
// at once — guided-DFS fallbacks, BiBFS, product BFS over |V|×|DFA| bits
// and overlay reads, each on a graph of another size, so an arena is
// handed from any search to any other — and every answer matches the
// closure. Run under -race.
func TestArenaPoolSharedAcrossSearches(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	type search struct {
		n     int
		reach func(s, t V) bool
		want  func(s, t V) bool
	}
	var searches []search

	dag := gen.RandomDAG(gen.Config{N: 3000, M: 9000, Seed: 27})
	guided, err := Build(KindGRAIL, dag, Options{K: 1}) // one interval: falls back often
	if err != nil {
		t.Fatal(err)
	}
	dagTC := tc.NewClosure(dag)
	searches = append(searches, search{dag.N(), guided.Reach, dagTC.Reach})

	cyclic := gen.ErdosRenyi(gen.Config{N: 700, M: 1400, Seed: 28})
	searches = append(searches, search{cyclic.N(),
		func(s, t V) bool { return traversal.BiBFS(cyclic, s, t) }, tc.NewClosure(cyclic).Reach})

	labeled := gen.UniformLabels(gen.ErdosRenyi(gen.Config{N: 150, M: 450, Seed: 29}), 3, 30)
	dfa, err := regexpath.Compile("(l0|l1)*", labeled)
	if err != nil {
		t.Fatal(err)
	}
	gtc, allowed := tc.NewGTC(labeled), labelset.Of(0, 1)
	searches = append(searches, search{labeled.N(),
		func(s, t V) bool { return traversal.ProductBFS(labeled, s, t, dfa) },
		func(s, t V) bool { return gtc.ReachLC(s, t, allowed) }})

	base := gen.RandomDAG(gen.Config{N: 1200, M: 3000, Seed: 31})
	mdb := newMutableDB(t, base, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, false)
	mirror := mutableCopy(base)
	rng := rand.New(rand.NewSource(32))
	ops := make([]EdgeOp, 60)
	for i := range ops {
		ops[i] = randomOp(rng, mirror)
	}
	if err := mdb.Mutate(context.Background(), ops); err != nil {
		t.Fatal(err)
	}
	searches = append(searches, search{base.N(),
		func(s, t V) bool { ok, _ := mdb.Reach(s, t); return ok }, tc.NewClosure(mirror.freeze()).Reach})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds*len(searches); i++ {
				k := (w + i) % len(searches)
				sr := searches[k]
				s, tt := V(rng.Intn(sr.n)), V(rng.Intn(sr.n))
				if got, want := sr.reach(s, tt), sr.want(s, tt); got != want {
					t.Errorf("worker %d search %d: reach(%d,%d) = %v, want %v", w, k, s, tt, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

package reach

// Tests for the composed serving state: Mutation and the query-result
// cache on one DB — the pair that used to refuse each other — checked
// against the internal/tc closure of a model edge set through both
// producers of the serving snapshot (commit, reindexer). See DESIGN.md,
// "Serving state".

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/tc"
)

// newComposedDB builds a mutable DB with a query-result cache of the given
// size. The reindexer rebuilds at threshold (negative: only when forced),
// so a test can decide every publish.
func newComposedDB(t *testing.T, g *Graph, cache int, threshold int) *DB {
	t.Helper()
	cfg := DBConfig{
		Metrics:   true,
		CacheSize: cache,
		Mutation: &MutationConfig{
			WALPath:          filepath.Join(t.TempDir(), "composed.wal"),
			RebuildThreshold: threshold,
			Fsync:            FsyncNever,
		},
	}
	db, err := NewDB(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// seededOp draws one edge mutation from rng alone (randomOp's removals
// follow map order) and applies it to the model: one in three removes the
// first present edge out of a random vertex, the rest add a random edge.
func seededOp(rng *rand.Rand, model *mutableCopy2) EdgeOp {
	n := model.n
	u := V(rng.Intn(n))
	if rng.Intn(3) == 0 {
		for i, off := 0, rng.Intn(n); i < n; i++ {
			if v := V((off + i) % n); model.edges[[2]V{u, v}] {
				model.remove(u, v)
				return EdgeOp{Remove: true, From: u, To: v}
			}
		}
	}
	v := V(rng.Intn(n))
	model.insert(u, v)
	return EdgeOp{From: u, To: v}
}

// checkComposed asserts every read entry point against the closure of the
// model: point reads twice (the second may be a cache hit), one batch over
// all pairs, and a witness path per sampled pair that must run over model
// edges only.
func checkComposed(t *testing.T, db *DB, model *mutableCopy2, when string) {
	t.Helper()
	live := model.freeze()
	oracle, pairs := tc.NewClosure(live), allPairs(live)
	batch, err := db.BatchReachCtx(context.Background(), pairs)
	if err != nil {
		t.Fatalf("%s: batch: %v", when, err)
	}
	for i, p := range pairs {
		want := oracle.Reach(p.S, p.T)
		for read := 0; read < 2; read++ {
			if got, err := db.Reach(p.S, p.T); err != nil || got != want {
				t.Fatalf("%s: Reach(%d,%d) read %d = %v, %v; closure says %v (epoch %d)", when, p.S, p.T, read, got, err, want, db.Epoch())
			}
		}
		if batch[i] != want {
			t.Fatalf("%s: batch (%d,%d) = %v, closure says %v", when, p.S, p.T, batch[i], want)
		}
		if i%7 != 0 {
			continue
		}
		path, err := db.ReachPath(p.S, p.T)
		if err != nil || (path != nil) != want {
			t.Fatalf("%s: ReachPath(%d,%d) = %v, %v; closure says %v", when, p.S, p.T, path, err, want)
		}
		for j := range path {
			if j == 0 && (path[0] != p.S || path[len(path)-1] != p.T) {
				t.Fatalf("%s: ReachPath(%d,%d) = %v: wrong endpoints", when, p.S, p.T, path)
			}
			if j > 0 && !model.edges[[2]V{path[j-1], path[j]}] {
				t.Fatalf("%s: ReachPath(%d,%d) = %v uses %d→%d, not a live edge", when, p.S, p.T, path, path[j-1], path[j])
			}
		}
	}
}

// TestComposedAgainstOracle runs one seeded program of writes, flushes and
// forced rebuilds on a mutable, cached DB and checks all reads against the
// oracle after each step.
func TestComposedAgainstOracle(t *testing.T) {
	graphs := map[string]*Graph{
		"dag":    gen.RandomDAG(gen.Config{N: 24, M: 40, Seed: 3}),
		"cyclic": gen.ErdosRenyi(gen.Config{N: 24, M: 36, Seed: 4}),
	}
	const name = "mutation+cache"
	ctx := context.Background()
	for gname, g := range graphs {
		t.Run(name+"/"+gname, func(t *testing.T) {
			db := newComposedDB(t, g, 64, -1)
			model := mutableCopy(g)
			rng := rand.New(rand.NewSource(int64(len(name) + g.M())))
			checkComposed(t, db, model, "at boot")
			cachedThenMutated(t, db, model)
			for step := 0; step < 40; step++ {
				when := fmt.Sprintf("step %d", step)
				epoch := db.Epoch()
				switch op := rng.Intn(6); {
				case op < 4:
					ops := make([]EdgeOp, 1+rng.Intn(3))
					for i := range ops {
						ops[i] = seededOp(rng, model)
					}
					if err := db.Mutate(ctx, ops); err != nil {
						t.Fatal(err)
					}
					when += " (commit)"
				case op == 4:
					if err := db.Flush(ctx); err != nil {
						t.Fatal(err)
					}
					when += " (flush)"
				case op == 5:
					if err := db.mut.rebuildOnce(); err != nil {
						t.Fatal(err)
					}
					if st := db.cur.Load(); !st.ov.Empty() {
						t.Fatalf("%s: rebuild left overlay %d", when, st.ov.Size())
					}
					when += " (rebuild)"
				}
				if db.Epoch() < epoch {
					t.Fatalf("%s: epoch went from %d to %d", when, epoch, db.Epoch())
				}
				checkComposed(t, db, model, when)
			}
			removeHeavyThenFold(t, db, model, rng)
			cachedThenMutated(t, db, model)
		})
	}
}

// removeHeavyThenFold is the stretch a reindexer that cannot keep up leaves
// behind: seeded commits, three removals of edges of the serving graph to
// one add, pile up with no fold until the overlay holds four times what
// would have triggered one; then a single forced rebuild folds them all.
// Reads are checked against the closure on the way up, at the top and
// after the fold.
func removeHeavyThenFold(t *testing.T, db *DB, model *mutableCopy2, rng *rand.Rand) {
	t.Helper()
	const foldAt = 8 // the RebuildThreshold a background reindexer would have had
	ctx := context.Background()
	base := db.cur.Load().g
	removeBaseEdge := func() EdgeOp {
		for i, off := 0, rng.Intn(model.n); i < model.n; i++ {
			u := V((off + i) % model.n)
			for _, v := range base.Succ(u) {
				if model.edges[[2]V{u, v}] {
					model.remove(u, v)
					return EdgeOp{Remove: true, From: u, To: v}
				}
			}
		}
		return seededOp(rng, model) // every edge of the base is gone already
	}
	for step := 0; db.cur.Load().ov.Size() < 4*foldAt; step++ {
		if step == 200 {
			t.Fatalf("the overlay never passed %d entries: %d after %d commits", 4*foldAt, db.cur.Load().ov.Size(), step)
		}
		ops := []EdgeOp{removeBaseEdge(), removeBaseEdge(), removeBaseEdge(), seededOp(rng, model)}
		if err := db.Mutate(ctx, ops); err != nil {
			t.Fatal(err)
		}
		if step%4 == 0 {
			checkComposed(t, db, model, fmt.Sprintf("remove-heavy step %d", step))
		}
	}
	if db.cur.Load().g != base {
		t.Fatal("a rebuild ran during the remove-heavy stretch")
	}
	checkComposed(t, db, model, "at 4x the fold threshold")
	if err := db.mut.rebuildOnce(); err != nil {
		t.Fatal(err)
	}
	if st := db.cur.Load(); st.g == base || !st.ov.Empty() {
		t.Fatalf("the forced rebuild left the old graph serving (%v) or %d overlay entries", st.g == base, st.ov.Size())
	}
	checkComposed(t, db, model, "after folding the remove-heavy overlay")
}

// cachedThenMutated is the hazard the old Mutation×CacheSize refusal
// guarded: read (s,t) → false (now cached), acknowledge AddEdge(s,t), read
// again → true; then the inverse through RemoveEdge.
func cachedThenMutated(t *testing.T, db *DB, model *mutableCopy2) {
	t.Helper()
	oracle := tc.NewClosure(model.freeze())
	ctx := context.Background()
	for s := V(0); int(s) < model.n; s++ {
		for tt := V(0); int(tt) < model.n; tt++ {
			if oracle.Reach(s, tt) {
				continue
			}
			read := func(want bool, when string) {
				t.Helper()
				for i := 0; i < 2; i++ { // the second read is the cached one
					if got, err := db.Reach(s, tt); err != nil || got != want {
						t.Fatalf("Reach(%d,%d) %s = %v, %v; want %v", s, tt, when, got, err, want)
					}
				}
			}
			hits := func() int64 { snap, _ := db.CacheStats(); return snap.Hits }
			before := hits()
			read(false, "before the add")
			if _, cached := db.CacheStats(); cached && hits() == before {
				t.Fatal("the repeated read was not served from the cache: the hazard is not exercised")
			}
			if err := db.AddEdge(ctx, s, tt); err != nil {
				t.Fatal(err)
			}
			read(true, "after the acknowledged add")
			if err := db.RemoveEdge(ctx, s, tt); err != nil {
				t.Fatal(err)
			}
			read(false, "after the acknowledged remove")
			return
		}
	}
	t.Fatal("no unreachable pair in the model")
}

// TestComposedConcurrent races 4 readers, 1 writer and background rebuilds
// on a mutable, cached DB (run under -race in CI).
// The writer moves one edge between a→b and a→c, both ops in one Mutate, so
// at every epoch exactly one of the two pairs is reachable: a batch that
// holds both must see exactly one, or it was answered across two epochs.
// The writer reads its own acknowledged writes back through the cache, no
// reader ever sees the epoch decrease, and after quiescing the DB matches
// the closure of everything committed.
func TestComposedConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency stress")
	}
	base := gen.RandomDAG(gen.Config{N: 40, M: 90, Seed: 8})
	n := base.N()
	a, b, c := V(n), V(n+1), V(n+2)
	gb := NewBuilder(n + 3)
	for _, e := range base.EdgeList() {
		gb.AddEdge(e.From, e.To)
	}
	gb.AddEdge(a, b)
	g, err := gb.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	db := newComposedDB(t, g, 256, 6)
	model := mutableCopy(g)
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && !t.Failed() {
				f()
			}
		}()
	}

	// The writer: move the edge, read the move back, then grow the overlay
	// on the base vertices so rebuilds keep coming.
	toB := true
	rng := rand.New(rand.NewSource(9))
	spawn(func() {
		from, to := b, c
		if toB = !toB; toB {
			from, to = c, b
		}
		model.remove(a, from)
		model.insert(a, to)
		if err := db.Mutate(ctx, []EdgeOp{{Remove: true, From: a, To: from}, {From: a, To: to}}); err != nil {
			t.Errorf("mutate: %v", err)
			return
		}
		for _, want := range []struct {
			t  V
			ok bool
		}{{to, true}, {from, false}} {
			if got, err := db.Reach(a, want.t); err != nil || got != want.ok {
				t.Errorf("writer read-back Reach(a,%d) = %v, %v; want %v", want.t, got, err, want.ok)
			}
		}
		u, v := V(rng.Intn(n)), V(rng.Intn(n))
		model.insert(u, v)
		if err := db.AddEdge(ctx, u, v); err != nil {
			t.Errorf("mutate: %v", err)
		}
	})
	// Four readers, one per read entry point, each watching the epoch.
	for w := 0; w < 4; w++ {
		rng := rand.New(rand.NewSource(int64(20 + w)))
		var last uint64
		spawn(func() {
			if e := db.Epoch(); e < last {
				t.Errorf("reader %d: epoch went from %d to %d", w, last, e)
			} else {
				last = e
			}
			s, tt := V(rng.Intn(n)), V(rng.Intn(n))
			var err error
			switch w {
			case 0:
				var out []bool
				if out, err = db.BatchReachCtx(ctx, []Pair{{S: a, T: b}, {S: s, T: tt}, {S: a, T: c}}); err == nil && out[0] == out[2] {
					t.Errorf("batch saw a→b = %v and a→c = %v: answered across two epochs", out[0], out[2])
				}
			case 1:
				_, err = db.Reach(s, tt)
			case 2:
				_, err = db.ReachPath(s, tt)
			case 3:
				_, err = db.Query(s, tt, "x+")
			}
			if err != nil {
				t.Errorf("reader %d: %v", w, err)
			}
		})
	}
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	waitRebuilt(t, db)
	ms, _ := db.MetricsSnapshot()
	if ms.Mutation.Rebuilds == 0 {
		t.Fatal("the race never happened: no background rebuild")
	}
	checkComposed(t, db, model, "after the race")
}

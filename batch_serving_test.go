package reach

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/tc"
)

// allPairs is every (s, t) of g in row-major order: 81 pairs on Fig. 1
// (answered inline), thousands on the generated graphs (answered on the
// pool).
func allPairs(g *Graph) []Pair {
	pairs := make([]Pair, 0, g.N()*g.N())
	for s := 0; s < g.N(); s++ {
		for t := 0; t < g.N(); t++ {
			pairs = append(pairs, Pair{S: V(s), T: V(t)})
		}
	}
	return pairs
}

// checkBatch asserts DB.BatchReachCtx == per-pair DB.Reach == the exact
// closure on every pair. It reports through t.Errorf so it is safe on any
// goroutine.
func checkBatch(t *testing.T, db *DB, oracle *tc.Closure, pairs []Pair, when string) {
	t.Helper()
	got, err := db.BatchReachCtx(context.Background(), pairs)
	if err != nil {
		t.Errorf("%s: BatchReachCtx: %v", when, err)
		return
	}
	for i, p := range pairs {
		want := oracle.Reach(p.S, p.T)
		single, err := db.Reach(p.S, p.T)
		if err != nil || single != want || got[i] != want {
			t.Errorf("%s: (%d,%d): batch %v, Reach %v (%v), closure %v", when, p.S, p.T, got[i], single, err, want)
			return
		}
	}
}

// TestDBBatchMatchesReachAndClosure: whatever serves the plain route — a
// frozen index, the sharded engine, a mutable DB's loaded state with an empty or a pinned overlay —
// DB.BatchReachCtx answers exactly what per-pair DB.Reach and the
// internal/tc closure answer. Run under -race in CI.
func TestDBBatchMatchesReachAndClosure(t *testing.T) {
	graphs := map[string]*Graph{
		"fig1":   Fig1Plain(),
		"dag":    gen.RandomDAG(gen.Config{N: 60, M: 150, Seed: 5}),
		"cyclic": gen.ErdosRenyi(gen.Config{N: 50, M: 110, Seed: 6}),
	}
	for name, g := range graphs {
		oracle := tc.NewClosure(g)
		pairs := allPairs(g)

		t.Run(name+"/frozen", func(t *testing.T) {
			for _, metrics := range []bool{false, true} {
				db, err := NewDB(g, DBConfig{Metrics: metrics})
				if err != nil {
					t.Fatal(err)
				}
				checkBatch(t, db, oracle, pairs, "frozen")
			}
		})

		for _, k := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/sharded-k%d", name, k), func(t *testing.T) {
				sdb, err := NewShardedDB(g, ShardedConfig{Shards: k, Metrics: true})
				if err != nil {
					t.Fatal(err)
				}
				checkBatch(t, sdb.DB, oracle, pairs, "sharded")
			})
		}

		t.Run(name+"/mutable", func(t *testing.T) {
			db := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, true)
			checkBatch(t, db, oracle, pairs, "empty overlay")
			mirror := mutableCopy(g)
			rng := rand.New(rand.NewSource(int64(g.N())))
			ops := make([]EdgeOp, 12)
			for i := range ops {
				ops[i] = randomOp(rng, mirror)
			}
			if err := db.Mutate(context.Background(), ops); err != nil {
				t.Fatal(err)
			}
			if ms, _ := db.MutationStats(); ms.OverlayAdded+ms.OverlayRemoved == 0 {
				t.Fatal("overlay is empty after 12 mutations")
			}
			checkBatch(t, db, tc.NewClosure(mirror.freeze()), pairs, "pinned overlay")
		})
	}
}

// TestDBBatchProbesTheIndex is the guard that cannot flake: it counts, it
// does not time. One 1024-pair DB.BatchReachCtx advances the serving
// index's query counter by exactly 1024 and its batch counters by one
// batch of 1024 — the serving path provably went through the index, not
// around it. On the frozen DB the batch, answered block by block, advances
// queries, positive, decided, fallback and visited by exactly what the
// same pairs asked one at a time through DB.Reach advance on a twin DB,
// and keeps one latency sample per 32 pairs. The sharded engine answers
// the batch in its own scatter-gather form and is counted from its
// answers, to the same totals. Over a pending overlay a pair may cost the
// index no probe or several, so there only the batch counters are exact:
// still one batch of 1024.
func TestDBBatchProbesTheIndex(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 2000, M: 8000, Seed: 9})
	frozen, err := NewDB(g, DBConfig{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedDB(g, ShardedConfig{Shards: 3, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	pinned := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, true)
	e := g.EdgeList()[0]
	if err := pinned.Mutate(context.Background(), []EdgeOp{{From: 5, To: 1900}, {Remove: true, From: e.From, To: e.To}}); err != nil {
		t.Fatal(err)
	}
	if ms, _ := pinned.MutationStats(); ms.OverlayAdded != 1 || ms.OverlayRemoved != 1 {
		t.Fatalf("overlay +%d/-%d, want +1/-1", ms.OverlayAdded, ms.OverlayRemoved)
	}
	rng := rand.New(rand.NewSource(10))
	pairs := make([]Pair, 1024)
	for i := range pairs {
		pairs[i] = Pair{S: V(rng.Intn(g.N())), T: V(rng.Intn(g.N()))}
	}
	twin, err := NewDB(g, DBConfig{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if _, err := twin.Reach(p.S, p.T); err != nil {
			t.Fatal(err)
		}
	}
	perPair, _ := twin.MetricsSnapshot()
	one := perPair.Indexes["BFL"]
	if one.Fallback == 0 || one.Positive == 0 {
		t.Fatalf("per-pair counters %+v: no positive or no fallback, the pairs do not exercise them", one)
	}
	for _, row := range []struct {
		name, index string
		db          *DB
		overlay     bool
	}{
		{"frozen", "BFL", frozen, false},
		{"sharded", "sharded", sharded.DB, false},
		{"empty overlay", "BFL", newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, true), false},
		{"pinned overlay", "BFL", pinned, true},
	} {
		before, _ := row.db.MetricsSnapshot()
		if _, err := row.db.BatchReachCtx(context.Background(), pairs); err != nil {
			t.Fatal(err)
		}
		after, _ := row.db.MetricsSnapshot()
		b, a := before.Indexes[row.index], after.Indexes[row.index]
		if got := a.Queries - b.Queries; got != 1024 && !row.overlay {
			t.Errorf("%s: queries advanced by %d, want 1024", row.name, got)
		}
		if got := a.Decided + a.Fallback - b.Decided - b.Fallback; got != 1024 && !row.overlay {
			t.Errorf("%s: decided+fallback advanced by %d, want 1024", row.name, got)
		}
		if a.Batches-b.Batches != 1 || a.BatchQueries-b.BatchQueries != 1024 {
			t.Errorf("%s: batches +%d, batch_queries +%d, want +1 and +1024",
				row.name, a.Batches-b.Batches, a.BatchQueries-b.BatchQueries)
		}
		if row.name != "frozen" {
			continue
		}
		got := [5]int64{a.Queries - b.Queries, a.Positive - b.Positive, a.Decided - b.Decided, a.Fallback - b.Fallback, a.Visited - b.Visited}
		want := [5]int64{one.Queries, one.Positive, one.Decided, one.Fallback, one.Visited}
		if got != want {
			t.Errorf("frozen: batch advanced queries, positive, decided, fallback, visited by %v; DB.Reach per pair by %v", got, want)
		}
		if d := a.Latency.Count - b.Latency.Count; d < 31 || d > 33 {
			t.Errorf("frozen: %d latency samples for 1024 pairs, want 32 ± 1", d)
		}
	}
}

// probeFaultSite is hit by faultyIndex on every probe.
const probeFaultSite = "test/index-probe"

// faultyIndex is a real index with a fault-injection site inside Reach.
type faultyIndex struct{ Index }

func (f faultyIndex) Reach(s, t V) bool {
	faultinject.Hit(probeFaultSite)
	return f.Index.Reach(s, t)
}

// TestDBBatchIndexPanic: a panic inside the index in the middle of a
// batch — inline and on a pool worker — is ErrIndexPanic to the caller,
// one more on the panics counter, and the next batch succeeds.
func TestDBBatchIndexPanic(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 500, M: 2000, Seed: 12})
	ix, err := Build(KindBFL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(g, DBConfig{PlainIndex: faultyIndex{ix}, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	oracle := tc.NewClosure(g)
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{40, 1024} {
		pairs := make([]Pair, n)
		for i := range pairs {
			pairs[i] = Pair{S: V(rng.Intn(g.N())), T: V(rng.Intn(g.N()))}
		}
		before, _ := db.MetricsSnapshot()
		faultinject.Activate(&faultinject.Plan{Site: probeFaultSite, Kind: faultinject.Panic, After: n / 2})
		out, err := db.BatchReachCtx(context.Background(), pairs)
		faultinject.Deactivate()
		if !errors.Is(err, ErrIndexPanic) || out != nil {
			t.Fatalf("n=%d: BatchReachCtx = %v, %v; want nil, ErrIndexPanic", n, out, err)
		}
		after, _ := db.MetricsSnapshot()
		if got := after.Panics - before.Panics; got != 1 {
			t.Errorf("n=%d: panics counter advanced by %d, want 1", n, got)
		}
		checkBatch(t, db, oracle, pairs, "after the contained panic")
	}
}

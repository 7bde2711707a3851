package reach

// Tests for the live-mutation subsystem: exactness of the delta-overlay
// query path against the exact transitive closure, durability across
// restarts and injected faults, and availability across rebuild panics.
// See DESIGN.md, "Mutation & durability".

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/mutate"
	"repro/internal/tc"
)

// newMutableDB builds a mutable DB over g with a WAL in a test temp dir.
func newMutableDB(t *testing.T, g *Graph, mc MutationConfig, metrics bool) *DB {
	t.Helper()
	if mc.WALPath == "" {
		mc.WALPath = filepath.Join(t.TempDir(), "test.wal")
	}
	db, err := NewDB(g, DBConfig{Mutation: &mc, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// checkExact compares the DB against the exact closure of the mirrored
// live graph on every vertex pair (the test graphs are small).
func checkExact(t *testing.T, db *DB, mirror *mutableCopy2, when string) {
	t.Helper()
	oracle := tc.NewClosure(mirror.freeze())
	n := mirror.n
	for s := 0; s < n; s++ {
		for tt := 0; tt < n; tt++ {
			got, err := db.Reach(V(s), V(tt))
			if err != nil {
				t.Fatalf("%s: Reach(%d,%d): %v", when, s, tt, err)
			}
			if want := oracle.Reach(V(s), V(tt)); got != want {
				st := db.cur.Load()
				t.Fatalf("%s: Reach(%d,%d) = %v, want %v (overlay +%d/-%d)",
					when, s, tt, got, want, st.ov.AddedCount(), st.ov.RemovedCount())
			}
		}
	}
}

// randomOp mutates the mirror and returns the matching EdgeOp. Removals
// prefer existing edges so both overlay sets get exercised.
func randomOp(rng *rand.Rand, mirror *mutableCopy2) EdgeOp {
	n := mirror.n
	if rng.Intn(3) == 0 && len(mirror.edges) > 0 {
		for e := range mirror.edges {
			mirror.remove(e[0], e[1])
			return EdgeOp{Remove: true, From: e[0], To: e[1]}
		}
	}
	u, v := V(rng.Intn(n)), V(rng.Intn(n))
	if rng.Intn(8) == 0 { // occasional remove of a (likely) absent edge
		mirror.remove(u, v)
		return EdgeOp{Remove: true, From: u, To: v}
	}
	mirror.insert(u, v)
	return EdgeOp{From: u, To: v}
}

// TestMutableExactness drives random mutations with rebuilds disabled
// (the overlay carries everything) and checks the DB against the exact
// transitive closure after every batch — the core exactness property at
// every point between flushes.
func TestMutableExactness(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 40, M: 80, Seed: 7})
	db := newMutableDB(t, g, MutationConfig{
		RebuildThreshold: -1, // pin the overlay: pure delta-path coverage
		Fsync:            FsyncNever,
	}, false)
	mirror := mutableCopy(g)
	rng := rand.New(rand.NewSource(77))
	ctx := context.Background()
	for round := 0; round < 30; round++ {
		ops := make([]EdgeOp, 1+rng.Intn(4))
		for i := range ops {
			ops[i] = randomOp(rng, mirror)
		}
		if err := db.Mutate(ctx, ops); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkExact(t, db, mirror, "after batch")
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	checkExact(t, db, mirror, "after flush")
}

// TestMutableRebuildExactness lets the background reindexer run (tiny
// threshold) and checks exactness across hot swaps, including mutations
// racing into the window between index construction and publish.
func TestMutableRebuildExactness(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 40, M: 80, Seed: 11})
	db := newMutableDB(t, g, MutationConfig{
		RebuildThreshold: 4,
		Fsync:            FsyncNever,
	}, false)
	mirror := mutableCopy(g)
	rng := rand.New(rand.NewSource(111))
	ctx := context.Background()
	for round := 0; round < 40; round++ {
		if err := db.Mutate(ctx, []EdgeOp{randomOp(rng, mirror)}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkExact(t, db, mirror, "between swaps")
	}
	// Quiesce: wait for any in-flight rebuild, then check once more.
	waitRebuilt(t, db)
	checkExact(t, db, mirror, "after final rebuild")
}

// TestMutableRebaseRevertAcrossSwap pins the revert race: an edge removed
// before a rebuild is re-added while the rebuild runs. The rebase at
// publish time must notice that the new base lacks the edge even though
// the live overlay nets out empty for it.
func TestMutableRebaseRevertAcrossSwap(t *testing.T) {
	// 0→1→2 chain; removing and re-adding 1→2 mid-rebuild.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	db := newMutableDB(t, g, MutationConfig{
		RebuildThreshold: -1, // triggered manually below
		Fsync:            FsyncNever,
	}, false)
	ctx := context.Background()

	if err := db.RemoveEdge(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Reach(0, 2); got {
		t.Fatal("0→2 still reachable after removing 1→2")
	}

	// Arm the hook, then force one rebuild through the engine directly.
	hooked := make(chan struct{})
	db.mut.testHookPreSwap = func() {
		db.mut.testHookPreSwap = nil
		// The new index (no 1→2) is built; re-add the edge before publish.
		if err := db.AddEdge(ctx, 1, 2); err != nil {
			t.Errorf("re-add during rebuild: %v", err)
		}
		close(hooked)
	}
	if err := db.mut.rebuildOnce(); err != nil {
		t.Fatalf("rebuildOnce: %v", err)
	}
	<-hooked
	if got, _ := db.Reach(0, 2); !got {
		t.Fatal("re-added edge lost across rebuild hot swap (rebase bug)")
	}
	st := db.cur.Load()
	if !st.ov.HasAdded(1, 2) {
		t.Fatalf("overlay after swap: +%d/-%d, want 1→2 net-added",
			st.ov.AddedCount(), st.ov.RemovedCount())
	}
}

// TestMutableConcurrentStress races mutators, readers, flushers, and
// background rebuilds under -race. Mid-flight answers are checked for
// liveness only (no torn state can be asserted without a frozen oracle);
// after quiescing, the DB must match the exact closure of everything the
// single mutator thread committed.
func TestMutableConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency stress")
	}
	g := gen.RandomDAG(gen.Config{N: 60, M: 150, Seed: 21})
	db := newMutableDB(t, g, MutationConfig{
		RebuildThreshold: 8,
		Fsync:            FsyncNever,
	}, true)
	mirror := mutableCopy(g)
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup

	// One mutator: the mirror tracks exactly the committed history.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 300 && !stop.Load(); i++ {
			op := randomOp(rng, mirror)
			if err := db.Mutate(ctx, []EdgeOp{op}); err != nil {
				t.Errorf("mutate: %v", err)
				return
			}
		}
	}()
	// Readers hammer single and batch queries throughout.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for !stop.Load() {
				s, tt := V(rng.Intn(g.N())), V(rng.Intn(g.N()))
				if _, err := db.Reach(s, tt); err != nil {
					t.Errorf("reach: %v", err)
					return
				}
				if w == 0 {
					pairs := []Pair{{S: s, T: tt}, {S: tt, T: s}}
					if _, err := db.BatchReachCtx(ctx, pairs); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
				}
				if w == 1 {
					if _, err := db.ReachPath(s, tt); err != nil {
						t.Errorf("path: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// A flusher exercises the barrier path concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := db.Flush(ctx); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	waitRebuilt(t, db)
	checkExact(t, db, mirror, "after concurrent stress")
}

// waitRebuilt waits for any in-flight background rebuild to finish.
func waitRebuilt(t *testing.T, db *DB) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ms, ok := db.MutationStats()
		if !ok {
			t.Fatal("not mutable")
		}
		if !ms.Rebuilding {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("rebuild never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMutableDurabilityRestart: acknowledged mutations survive an abrupt
// restart (the first DB is never closed — its WAL simply gets re-opened,
// exactly the crash case) and replay into an exact state.
func TestMutableDurabilityRestart(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 30, M: 60, Seed: 31})
	wal := filepath.Join(t.TempDir(), "crash.wal")
	db1, err := NewDB(g, DBConfig{Mutation: &MutationConfig{
		WALPath:          wal,
		RebuildThreshold: -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	mirror := mutableCopy(g)
	rng := rand.New(rand.NewSource(313))
	ctx := context.Background()
	nops := 0
	for i := 0; i < 25; i++ {
		op := randomOp(rng, mirror)
		if err := db1.Mutate(ctx, []EdgeOp{op}); err != nil {
			t.Fatal(err)
		}
		nops++
	}
	// No Close: db1 "crashes". FsyncAlways means every ack is on disk.

	db2, err := NewDB(g, DBConfig{Mutation: &MutationConfig{
		WALPath:          wal,
		RebuildThreshold: -1,
	}})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer db2.Close()
	ms, ok := db2.MutationStats()
	if !ok || ms.Replayed != nops {
		t.Fatalf("replayed %d ops (ok=%v), want %d", ms.Replayed, ok, nops)
	}
	checkExact(t, db2, mirror, "after replay")

	// The replayed log keeps accepting appends with a contiguous sequence.
	if err := db2.AddEdge(ctx, 0, V(g.N()-1)); err != nil {
		t.Fatal(err)
	}
	mirror.insert(0, V(g.N()-1))
	checkExact(t, db2, mirror, "after post-replay append")
}

// TestMutableCleanShutdownReplay: Close drains queued mutations and the
// next start replays the full acknowledged history.
func TestMutableCleanShutdownReplay(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 20, M: 40, Seed: 41})
	wal := filepath.Join(t.TempDir(), "clean.wal")
	db1, err := NewDB(g, DBConfig{Mutation: &MutationConfig{WALPath: wal, RebuildThreshold: -1, Fsync: FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	mirror := mutableCopy(g)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		u, v := V(i), V((i*7+3)%g.N())
		if err := db1.AddEdge(ctx, u, v); err != nil {
			t.Fatal(err)
		}
		mirror.insert(u, v)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	// Mutations after Close refuse; queries keep serving.
	if err := db1.AddEdge(ctx, 0, 1); !errors.Is(err, mutate.ErrClosed) {
		t.Fatalf("AddEdge after Close = %v, want ErrClosed", err)
	}
	checkExact(t, db1, mirror, "after close")

	db2, err := NewDB(g, DBConfig{Mutation: &MutationConfig{WALPath: wal, RebuildThreshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkExact(t, db2, mirror, "after clean restart")
}

// TestMutableInjectedWALFault: an injected disk fault on the commit path
// must reject the batch — nothing applied, nothing acknowledged, nothing
// on disk — and the engine must keep working once the fault clears.
func TestMutableInjectedWALFault(t *testing.T) {
	for _, site := range []string{mutate.SiteWALAppend, mutate.SiteWALFsync} {
		t.Run(site, func(t *testing.T) {
			g := gen.RandomDAG(gen.Config{N: 20, M: 40, Seed: 51})
			wal := filepath.Join(t.TempDir(), "fault.wal")
			db := newMutableDB(t, g, MutationConfig{WALPath: wal, RebuildThreshold: -1}, true)
			mirror := mutableCopy(g)
			ctx := context.Background()
			if err := db.AddEdge(ctx, 0, 5); err != nil {
				t.Fatal(err)
			}
			mirror.insert(0, 5)

			faultinject.Activate(&faultinject.Plan{Site: site, Kind: faultinject.Error})
			t.Cleanup(faultinject.Deactivate)
			err := db.AddEdge(ctx, 1, 6)
			var inj *faultinject.Injected
			if !errors.As(err, &inj) {
				t.Fatalf("AddEdge under %s fault = %v, want injected error", site, err)
			}
			// Rejected, not applied: state unchanged.
			checkExact(t, db, mirror, "after rejected commit")
			snap, ok := db.MetricsSnapshot()
			if !ok || snap.Mutation == nil {
				t.Fatal("no mutation metrics")
			}
			if snap.Mutation.WALErrors == 0 || snap.Mutation.Rejected == 0 {
				t.Fatalf("wal_errors=%d rejected=%d, want both > 0",
					snap.Mutation.WALErrors, snap.Mutation.Rejected)
			}

			// Fault cleared (plans fire once): the pipeline recovers.
			if err := db.AddEdge(ctx, 1, 6); err != nil {
				t.Fatalf("AddEdge after fault cleared: %v", err)
			}
			mirror.insert(1, 6)
			checkExact(t, db, mirror, "after recovery")

			// Restart replays only the acknowledged writes.
			db2, err := NewDB(g, DBConfig{Mutation: &MutationConfig{WALPath: wal, RebuildThreshold: -1}})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			checkExact(t, db2, mirror, "after restart")
		})
	}
}

// TestMutableRebuildPanicAvailability: a panicking index build inside the
// background reindexer must be contained — queries keep answering exactly
// from the old index plus the overlay, the failure is visible in metrics,
// and the engine recovers on a later rebuild once the fault clears.
func TestMutableRebuildPanicAvailability(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 30, M: 60, Seed: 61})
	db := newMutableDB(t, g, MutationConfig{
		RebuildThreshold: 2,
		RebuildRetries:   -1, // one attempt, then degraded until next commit
		Fsync:            FsyncNever,
	}, true)
	mirror := mutableCopy(g)
	ctx := context.Background()

	faultinject.Activate(&faultinject.Plan{Site: mutate.SiteRebuild, Kind: faultinject.Panic})
	t.Cleanup(faultinject.Deactivate)

	// Exactly cross the threshold once — further commits would re-arm the
	// reindexer and (the plan fires once) let it recover prematurely.
	for _, v := range []V{5, 6} {
		if err := db.AddEdge(ctx, v, v); err != nil {
			t.Fatal(err)
		}
		mirror.insert(v, v)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, _ := db.MetricsSnapshot()
		if snap.Mutation != nil && snap.Mutation.RebuildPanics > 0 && snap.Mutation.RebuildDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuild panic never surfaced: %+v", snap.Mutation)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Availability: every answer still exact, index-free for the delta.
	checkExact(t, db, mirror, "while degraded")
	if ms, _ := db.MutationStats(); !ms.Degraded {
		t.Fatal("MutationStats.Degraded = false after exhausted retries")
	}

	// The plan fired once; the next commit re-arms the reindexer and the
	// rebuild now succeeds, folding the overlay away.
	faultinject.Deactivate()
	op := EdgeOp{From: 0, To: V(g.N() - 1)}
	mirror.insert(op.From, op.To)
	if err := db.Mutate(ctx, []EdgeOp{op}); err != nil {
		t.Fatal(err)
	}
	waitRebuilt(t, db)
	deadline = time.Now().Add(30 * time.Second)
	for {
		snap, _ := db.MetricsSnapshot()
		if snap.Mutation != nil && snap.Mutation.Rebuilds > 0 && !snap.Mutation.RebuildDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuild never recovered: %+v", snap.Mutation)
		}
		time.Sleep(2 * time.Millisecond)
	}
	checkExact(t, db, mirror, "after recovery rebuild")
}

// TestMutableRebuildRefreshesIndexView: after the reindexer publishes,
// every view of "the plain index" — PlainIndex, Stats (and with it
// /admin/stats.indexes) — is the serving index, not the one built at boot.
func TestMutableRebuildRefreshesIndexView(t *testing.T) {
	// 0→1→2→3 with 3→4 missing: the rebuild folds it in.
	b := NewBuilder(5)
	for v := V(0); v < 3; v++ {
		b.AddEdge(v, v+1)
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DBConfig{Plain: KindPLL, Mutation: &MutationConfig{
		WALPath:          filepath.Join(t.TempDir(), "view.wal"),
		RebuildThreshold: 1,
		Fsync:            FsyncNever,
	}}
	db, err := NewDB(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	boot := db.Stats()
	if err := db.AddEdge(context.Background(), 3, 4); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		ms, _ := db.MutationStats()
		if !ms.Rebuilding && ms.OverlayAdded+ms.OverlayRemoved == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the rebuild never folded the overlay: %+v", ms)
		}
	}
	ix, ok := db.PlainIndex(cfg.Plain)
	if !ok || !ix.Reach(0, 4) {
		t.Fatalf("PlainIndex(%s) = %v, %v: not the index the rebuild published (it must reach 0→4)", cfg.Plain, ix, ok)
	}
	if now := db.Stats(); reflect.DeepEqual(boot, now) {
		t.Fatalf("Stats() still describes the boot-time index: %+v", now)
	}
	if !db.Graph().HasEdge(3, 4) {
		t.Fatal("Graph() is not the graph the serving index was built over")
	}
}

// TestMutableConfigValidation: every invalid Mutation configuration is a
// typed ErrBadOptions at construction, and mutation entry points on a
// non-mutable DB are typed ErrNotMutable.
func TestMutableConfigValidation(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "v.wal")
	cases := []struct {
		name string
		g    *Graph
		cfg  DBConfig
	}{
		{"missing WAL path", Fig1Plain(), DBConfig{Mutation: &MutationConfig{}}},
		{"labeled graph", Fig1Labeled(), DBConfig{Mutation: &MutationConfig{WALPath: wal}}},
		{"pre-built engine", Fig1Plain(), DBConfig{PlainIndex: panicIndex{}, Mutation: &MutationConfig{WALPath: wal}}},
		{"bad fsync", Fig1Plain(), DBConfig{Mutation: &MutationConfig{WALPath: wal, Fsync: FsyncMode(9)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDB(tc.g, tc.cfg)
			if !errors.Is(err, ErrBadOptions) {
				t.Fatalf("NewDB = %v, want ErrBadOptions", err)
			}
			if prebuilt := tc.cfg.PlainIndex != nil; errors.Is(err, ErrPrebuiltEngine) != prebuilt {
				t.Fatalf("NewDB = %v; ErrPrebuiltEngine wanted only for the pre-built engine", err)
			}
		})
	}

	plain, err := NewDB(Fig1Plain(), DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := plain.AddEdge(ctx, 0, 1); !errors.Is(err, ErrNotMutable) {
		t.Fatalf("AddEdge on plain DB = %v, want ErrNotMutable", err)
	}
	if err := plain.Flush(ctx); err != nil {
		t.Fatalf("Flush on plain DB = %v, want nil no-op", err)
	}
	if err := plain.Close(); err != nil {
		t.Fatalf("Close on plain DB = %v, want nil no-op", err)
	}
	if _, ok := plain.MutationStats(); ok {
		t.Fatal("MutationStats ok on plain DB")
	}

	// Vertex-range validation on a mutable DB.
	db := newMutableDB(t, Fig1Plain(), MutationConfig{RebuildThreshold: -1}, false)
	if err := db.AddEdge(ctx, 0, V(db.Graph().N())); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("out-of-range AddEdge = %v, want ErrVertexRange", err)
	}
}

// TestMutableWALGraphMismatch: a WAL recorded against a bigger vertex
// universe must fail the build rather than silently dropping ops.
func TestMutableWALGraphMismatch(t *testing.T) {
	big := gen.RandomDAG(gen.Config{N: 50, M: 100, Seed: 71})
	wal := filepath.Join(t.TempDir(), "m.wal")
	db1, err := NewDB(big, DBConfig{Mutation: &MutationConfig{WALPath: wal, RebuildThreshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db1.AddEdge(context.Background(), 45, 49); err != nil {
		t.Fatal(err)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	small := gen.RandomDAG(gen.Config{N: 10, M: 20, Seed: 72})
	if _, err := NewDB(small, DBConfig{Mutation: &MutationConfig{WALPath: wal}}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("NewDB with mismatched WAL = %v, want ErrBadOptions", err)
	}
}

// TestMutablePathAndQuery covers the witness-path and unlabeled-query
// entry points against the overlaid graph.
func TestMutablePathAndQuery(t *testing.T) {
	// 0→1→2, 3 isolated.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	db := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, false)
	ctx := context.Background()

	// Connect 2→3 through the overlay; a witness path must use it.
	if err := db.AddEdge(ctx, 2, 3); err != nil {
		t.Fatal(err)
	}
	path, err := db.ReachPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []V{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}

	// Remove a middle edge: reachability and the path must both go.
	if err := db.RemoveEdge(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	if path, err := db.ReachPath(0, 3); err != nil || path != nil {
		t.Fatalf("ReachPath after cut = %v / %v, want nil/nil", path, err)
	}

	// Unlabeled constraint queries ride the overlay too: a* is plain
	// star reachability, a+ requires at least one live edge.
	if got, err := db.Query(2, 3, "a*"); err != nil || !got {
		t.Fatalf("Query(2,3,a*) = %v/%v, want true", got, err)
	}
	if got, err := db.Query(0, 2, "a*"); err != nil || got {
		t.Fatalf("Query(0,2,a*) = %v/%v, want false after cut", got, err)
	}
	if got, err := db.Query(0, 0, "a+"); err != nil || got {
		t.Fatalf("Query(0,0,a+) = %v/%v, want false (no self-loop)", got, err)
	}
	if err := db.AddEdge(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Query(0, 0, "a+"); err != nil || !got {
		t.Fatalf("Query(0,0,a+) = %v/%v, want true via added self-loop", got, err)
	}
}

// TestMutableBatchMatchesSingle: the batch entry point and the single
// query path must agree under a live overlay.
func TestMutableBatchMatchesSingle(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 30, M: 60, Seed: 81})
	db := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, false)
	mirror := mutableCopy(g)
	rng := rand.New(rand.NewSource(818))
	ctx := context.Background()
	for i := 0; i < 15; i++ {
		if err := db.Mutate(ctx, []EdgeOp{randomOp(rng, mirror)}); err != nil {
			t.Fatal(err)
		}
	}
	var pairs []Pair
	for s := 0; s < g.N(); s++ {
		for tt := 0; tt < g.N(); tt++ {
			pairs = append(pairs, Pair{S: V(s), T: V(tt)})
		}
	}
	got, err := db.BatchReachCtx(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		single, err := db.Reach(p.S, p.T)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != single {
			t.Fatalf("batch[%d] (%d,%d) = %v, single = %v", i, p.S, p.T, got[i], single)
		}
	}
	// Out-of-range pairs are typed errors, not panics.
	if _, err := db.BatchReachCtx(ctx, []Pair{{S: 0, T: V(g.N())}}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("batch out-of-range = %v, want ErrVertexRange", err)
	}
}

// TestMutableFlushDurabilityMetrics: Flush forces an fsync even under
// FsyncNever, and the metrics surface records it.
func TestMutableFlushDurabilityMetrics(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 10, M: 20, Seed: 91})
	db := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, true)
	ctx := context.Background()
	if err := db.AddEdge(ctx, 0, 9); err != nil {
		t.Fatal(err)
	}
	before, _ := db.MetricsSnapshot()
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	after, _ := db.MetricsSnapshot()
	if after.Mutation.WALFsyncs <= before.Mutation.WALFsyncs {
		t.Fatalf("Flush did not fsync: %d -> %d",
			before.Mutation.WALFsyncs, after.Mutation.WALFsyncs)
	}
	if after.Mutation.WALAppends == 0 || after.Mutation.Applied != 1 {
		t.Fatalf("appends=%d applied=%d", after.Mutation.WALAppends, after.Mutation.Applied)
	}
}

package reach

// Guards of the write path's cost model — a commit costs its batch, a
// rebuild one pass over the graph, a shutdown at most the step in flight —
// by counts rather than by the clock where a count exists. See DESIGN.md,
// "Mutation & durability".

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/mutate"
	"repro/internal/traversal"
)

// scriptOps converts a slice of an update script into DB.Mutate ops.
func scriptOps(script []gen.UpdateOp) []EdgeOp {
	ops := make([]EdgeOp, len(script))
	for i, u := range script {
		ops[i] = EdgeOp{Remove: !u.Insert, From: u.Edge.From, To: u.Edge.To}
	}
	return ops
}

// TestMutateCostFollowsBatchNotOverlay: a 32-op DB.Mutate over a 32k-entry
// overlay makes as many allocations as over a 1k-entry one — a small
// constant, nothing per entry — and the extra bytes are what it copies: the
// two sorted runs, 8 bytes an entry.
func TestMutateCostFollowsBatchNotOverlay(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are in the counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const batch, rounds = 32, 64
	g := gen.RandomDAG(gen.Config{N: 50_000, M: 200_000, Seed: 31})
	script := gen.UpdateScript(g, 33_000+2*batch*rounds, true, 32)
	db := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, false)
	ctx := context.Background()
	at := 0
	fill := func(size int) int {
		for {
			if ms, _ := db.MutationStats(); ms.OverlayAdded+ms.OverlayRemoved >= size {
				return ms.OverlayAdded + ms.OverlayRemoved
			}
			if err := db.Mutate(ctx, scriptOps(script[at:at+500])); err != nil {
				t.Fatal(err)
			}
			at += 500
		}
	}
	measure := func() (allocs, bytes float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			if err := db.Mutate(ctx, scriptOps(script[at:at+batch])); err != nil {
				t.Fatal(err)
			}
			at += batch
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / rounds, float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	small := fill(1_000)
	allocsSmall, bytesSmall := measure()
	large := fill(32_000)
	allocsLarge, bytesLarge := measure()
	t.Logf("overlay %d: %.1f allocs, %.0f B per %d-op Mutate; overlay %d: %.1f allocs, %.0f B",
		small, allocsSmall, bytesSmall, batch, large, allocsLarge, bytesLarge)
	if allocsLarge > allocsSmall+1 || allocsLarge > 32 {
		t.Errorf("allocations per Mutate: %.1f at %d entries, %.1f at %d — want the same small constant", allocsSmall, small, allocsLarge, large)
	}
	// The copy, with room for the allocator's size classes.
	if limit := 8*float64(large-small)*1.25 + 16<<10; bytesLarge-bytesSmall > limit {
		t.Errorf("bytes per Mutate grew by %.0f from %d to %d entries, more than the slice copy (%.0f)", bytesLarge-bytesSmall, small, large, limit)
	}
}

// TestEpochCountsPublishes: the serving epoch counts publishes, one per
// acknowledged commit and one per fold. N sequential Mutate calls and R
// forced rebuilds advance Epoch() (and reach_serving_epoch) by exactly
// N + R and the rebuild counter by exactly R.
func TestEpochCountsPublishes(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 30, M: 60, Seed: 44})
	db := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, true)
	rebuilds := func() int64 {
		snap, _ := db.MetricsSnapshot()
		return snap.Mutation.Rebuilds
	}
	const n, every = 12, 3 // a forced rebuild after every third commit
	epoch0, rebuilds0 := db.Epoch(), rebuilds()
	rng := rand.New(rand.NewSource(45))
	for i := 1; i <= n; i++ {
		u, v := V(rng.Intn(g.N())), V(rng.Intn(g.N()))
		for db.Graph().HasEdge(u, v) || u == v {
			u, v = V(rng.Intn(g.N())), V(rng.Intn(g.N()))
		}
		if err := db.Mutate(context.Background(), []EdgeOp{{From: u, To: v}}); err != nil {
			t.Fatal(err)
		}
		if i%every == 0 {
			if err := db.mut.rebuildOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const r = n / every
	if got := db.Epoch() - epoch0; got != n+r {
		t.Errorf("%d commits and %d rebuilds advanced the epoch by %d, want %d", n, r, got, n+r)
	}
	if got := rebuilds() - rebuilds0; got != r {
		t.Errorf("%d forced rebuilds advanced the rebuild counter by %d", r, got)
	}
	if snap, _ := db.MetricsSnapshot(); snap.Epoch != int64(db.Epoch()) {
		t.Errorf("reach_serving_epoch %d, Epoch() %d", snap.Epoch, db.Epoch())
	}
}

// TestCommitCountsTheSyncsThatHappened: reach_wal_fsyncs_total counts an
// fsync once, where it succeeded. A barrier riding a batch under FsyncNever
// whose fsync fails counts none and leaves nothing behind — not in the
// overlay, not in the file.
func TestCommitCountsTheSyncsThatHappened(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 20, M: 40, Seed: 33})
	fsyncs := func(db *DB) int64 {
		snap, _ := db.MetricsSnapshot()
		return snap.Mutation.WALFsyncs
	}
	ctx := context.Background()

	db := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1, Fsync: FsyncNever}, true)
	if err := db.AddEdge(ctx, 0, 5); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs(db); got != 0 {
		t.Fatalf("a commit under FsyncNever counted %d fsyncs", got)
	}
	ops := []mutate.Op{{From: 1, To: 6}}
	size := db.mut.wal.Size()
	faultinject.Activate(&faultinject.Plan{Site: mutate.SiteWALFsync, Kind: faultinject.Error})
	t.Cleanup(faultinject.Deactivate)
	var inj *faultinject.Injected
	if err := db.mut.commit(ops, true); !errors.As(err, &inj) {
		t.Fatalf("commit with a failing fsync = %v, want the injected error", err)
	}
	if st := db.cur.Load(); fsyncs(db) != 0 || st.ov.HasAdded(1, 6) || db.mut.wal.Size() != size {
		t.Fatalf("after the failed fsync: %d fsyncs counted, applied = %v, WAL %d → %d bytes — want nothing counted, applied or logged",
			fsyncs(db), st.ov.HasAdded(1, 6), size, db.mut.wal.Size())
	}
	if err := db.mut.commit(ops, true); err != nil { // the plan fired once
		t.Fatal(err)
	}
	if got := fsyncs(db); got != 1 {
		t.Fatalf("a forced commit counted %d fsyncs, want 1", got)
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs(db); got != 2 {
		t.Fatalf("a commit and a Flush counted %d fsyncs, want 2", got)
	}

	always := newMutableDB(t, g, MutationConfig{RebuildThreshold: -1}, true)
	for i := V(0); i < 3; i++ {
		if err := always.AddEdge(ctx, i, i+7); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsyncs(always); got != 3 {
		t.Fatalf("3 commits under FsyncAlways counted %d fsyncs", got)
	}
}

// TestCloseDoesNotWaitOutAFold: Close during the rebuild that a replayed
// 50k-entry overlay starts at n = 10⁵ returns once the step in flight
// ends, and whichever snapshot then serves — almost always the old one,
// under its overlay — answers exactly.
func TestCloseDoesNotWaitOutAFold(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10⁵-vertex index twice")
	}
	g := gen.RandomDAG(gen.Config{N: 100_000, M: 400_000, Seed: 35})
	script := gen.UpdateScript(g, 60_000, true, 36)
	wal := filepath.Join(t.TempDir(), "fold.wal")
	ctx := context.Background()

	db1, err := NewDB(g, DBConfig{Mutation: &MutationConfig{WALPath: wal, RebuildThreshold: -1, Fsync: FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	live := mutableCopy(g)
	for at := 0; at < len(script); at += 1000 {
		if err := db1.Mutate(ctx, scriptOps(script[at:at+1000])); err != nil {
			t.Fatal(err)
		}
		for _, u := range script[at : at+1000] {
			if u.Insert {
				live.insert(u.Edge.From, u.Edge.To)
			} else {
				live.remove(u.Edge.From, u.Edge.To)
			}
		}
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := NewDB(g, DBConfig{Mutation: &MutationConfig{WALPath: wal}})
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := db2.MutationStats()
	if ms.OverlayAdded+ms.OverlayRemoved < 50_000 || !ms.Rebuilding {
		t.Fatalf("after replay: overlay +%d/-%d, rebuilding = %v — want ≥ 50 000 entries and the fold under way", ms.OverlayAdded, ms.OverlayRemoved, ms.Rebuilding)
	}
	start := time.Now()
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	// One step of the rebuild — the longest is the index build, ≈0.2 s —
	// not the rebuild, let alone 25 000 passes over the edge list.
	if took := time.Since(start); took > time.Second && !raceEnabled {
		t.Errorf("Close during the fold took %v", took)
	}
	if ms, _ := db2.MutationStats(); ms.Rebuilding {
		t.Error("Close returned with the rebuild still running")
	}
	// A fold cut short by Close is a stop, not a fault.
	if m := db2.mut.m.Snapshot(); m.RebuildFailures != 0 || m.RebuildDegraded {
		t.Errorf("Close during the fold counted %d rebuild failures, degraded = %v", m.RebuildFailures, m.RebuildDegraded)
	}
	oracle := live.freeze()
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 300; i++ {
		s := V(rng.Intn(g.N()))
		tt := V(rng.Intn(g.N()))
		if i%2 == 0 { // uniform pairs are almost all negative: walk to a positive
			tt = s
			for hop := 1 + rng.Intn(8); hop > 0 && oracle.OutDegree(tt) > 0; hop-- {
				tt = oracle.Succ(tt)[rng.Intn(oracle.OutDegree(tt))]
			}
		}
		got, err := db2.Reach(s, tt)
		if want := traversal.BFS(oracle, s, tt); err != nil || got != want {
			t.Fatalf("after Close: Reach(%d,%d) = %v, %v; BFS over the live graph says %v", s, tt, got, err, want)
		}
	}
}

package core_test

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scc"
	"repro/internal/tc"
	"repro/internal/traversal"
)

func TestGuidedDFSNoFilter(t *testing.T) {
	// With an always-undecided filter, GuidedDFS is plain DFS.
	g := gen.ErdosRenyi(gen.Config{N: 60, M: 180, Seed: 1})
	undecided := func(u, t graph.V) (bool, bool) { return false, false }
	for s := graph.V(0); int(s) < g.N(); s += 2 {
		for tt := graph.V(0); int(tt) < g.N(); tt += 3 {
			if core.GuidedDFS(g, s, tt, undecided) != traversal.BFS(g, s, tt) {
				t.Fatalf("unfiltered GuidedDFS wrong at (%d,%d)", s, tt)
			}
		}
	}
}

func TestGuidedDFSWithOracleFilter(t *testing.T) {
	// With a perfect filter, GuidedDFS must answer without error and the
	// counting variant must expand nothing.
	g := gen.RandomDAG(gen.Config{N: 80, M: 240, Seed: 2})
	oracle := tc.NewClosure(g)
	perfect := func(u, t graph.V) (bool, bool) { return oracle.Reach(u, t), true }
	for s := graph.V(0); int(s) < g.N(); s += 3 {
		for tt := graph.V(0); int(tt) < g.N(); tt += 3 {
			got, expanded := core.CountingGuidedDFS(g, s, tt, perfect)
			if got != oracle.Reach(s, tt) {
				t.Fatalf("wrong at (%d,%d)", s, tt)
			}
			if expanded != 0 {
				t.Fatalf("perfect filter expanded %d vertices", expanded)
			}
		}
	}
}

func TestGuidedDFSSoundFilterStaysExact(t *testing.T) {
	// A randomly-decided but SOUND filter (only answers when the oracle
	// agrees) must never change results.
	g := gen.ErdosRenyi(gen.Config{N: 50, M: 200, Seed: 3})
	oracle := tc.NewClosure(g)
	rng := rand.New(rand.NewSource(4))
	flaky := func(u, t graph.V) (bool, bool) {
		if rng.Intn(3) == 0 {
			return oracle.Reach(u, t), true
		}
		return false, false
	}
	for s := graph.V(0); int(s) < g.N(); s++ {
		for tt := graph.V(0); int(tt) < g.N(); tt++ {
			if core.GuidedDFS(g, s, tt, flaky) != oracle.Reach(s, tt) {
				t.Fatalf("flaky-but-sound filter broke (%d,%d)", s, tt)
			}
		}
	}
}

type fakeIndex struct {
	oracle *tc.Closure
}

func (f *fakeIndex) Name() string            { return "fake" }
func (f *fakeIndex) Reach(s, t graph.V) bool { return f.oracle.Reach(s, t) }
func (f *fakeIndex) Stats() core.Stats       { return core.Stats{Entries: 1, Bytes: 8} }

func TestForGeneralCondensation(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 70, M: 280, Seed: 5})
	built := 0
	ix := core.ForGeneralPrepared(g, nil, 0, 0, nil, func(c *scc.Condensation) core.Index {
		dag := c.DAG
		built++
		// The builder must receive an acyclic graph.
		if dag.N() > g.N() {
			t.Fatal("condensation grew")
		}
		return &fakeIndex{oracle: tc.NewClosure(dag)}
	})
	if built != 1 {
		t.Fatalf("builder called %d times", built)
	}
	oracle := tc.NewClosure(g)
	for s := graph.V(0); int(s) < g.N(); s++ {
		for tt := graph.V(0); int(tt) < g.N(); tt++ {
			if ix.Reach(s, tt) != oracle.Reach(s, tt) {
				t.Fatalf("condensed reach wrong at (%d,%d)", s, tt)
			}
		}
	}
	if ix.Name() != "fake" {
		t.Error("name not forwarded")
	}
	if ix.Stats().Bytes <= 8 {
		t.Error("stats must include the component map")
	}
	// TryReach forwarding on a non-partial inner index: decided always.
	p := ix.(core.Partial)
	if r, dec := p.TryReach(0, 0); !r || !dec {
		t.Error("same-vertex TryReach")
	}
}

func TestDynGraph(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}})
	d := core.NewDynGraph(g)
	if d.N() != 4 || d.M() != 2 {
		t.Fatalf("N=%d M=%d", d.N(), d.M())
	}
	if !d.HasEdge(0, 1) || d.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
	if !d.Insert(2, 3) || d.Insert(2, 3) {
		t.Error("Insert semantics wrong")
	}
	if d.M() != 3 {
		t.Errorf("M = %d", d.M())
	}
	if !d.Delete(0, 1) || d.Delete(0, 1) {
		t.Error("Delete semantics wrong")
	}
	if d.HasEdge(0, 1) || d.M() != 2 {
		t.Error("delete did not apply")
	}
	// Sorted adjacency after random churn.
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		u, v := graph.V(rng.Intn(4)), graph.V(rng.Intn(4))
		if u == v {
			continue
		}
		if rng.Intn(2) == 0 {
			d.Insert(u, v)
		} else {
			d.Delete(u, v)
		}
	}
	for v := graph.V(0); v < 4; v++ {
		s := d.Succ(v)
		for i := 1; i < len(s); i++ {
			if s[i-1] >= s[i] {
				t.Fatalf("succ[%d] unsorted: %v", v, s)
			}
		}
	}
	// Reverse view.
	d2 := core.NewDynGraph(g)
	r := d2.Reverse()
	if r.N() != 4 {
		t.Error("reverse N")
	}
	if len(r.Succ(1)) != 1 || r.Succ(1)[0] != 0 {
		t.Errorf("reverse adjacency wrong: %v", r.Succ(1))
	}
}

func TestUnsupportedError(t *testing.T) {
	err := error(&core.Unsupported{Op: "DeleteEdge", Index: "DBL"})
	if err.Error() != "DBL: DeleteEdge is not supported" {
		t.Errorf("message %q", err.Error())
	}
	var u *core.Unsupported
	if !errors.As(err, &u) {
		t.Error("errors.As failed")
	}
}

// countingIndex is an exact inner index over a condensation's DAG that
// counts every call made to it, whatever the method.
type countingIndex struct {
	oracle  *tc.Closure
	calls   int
	reaches int // the calls made through Reach
}

func (c *countingIndex) Name() string      { return "counting" }
func (c *countingIndex) Stats() core.Stats { return core.Stats{} }
func (c *countingIndex) Reach(s, t graph.V) bool {
	c.calls++
	c.reaches++
	return c.oracle.Reach(s, t)
}
func (c *countingIndex) TryReach(s, t graph.V) (bool, bool) {
	c.calls++
	return c.oracle.Reach(s, t), true
}
func (c *countingIndex) ReachCounted(s, t graph.V) (bool, int, bool) {
	c.calls++
	return c.oracle.Reach(s, t), 0, true
}

// TestCondensedCutsBeforeInner: component ids are in reverse topological
// order, so the adapter answers every pair with Comp[s] <= Comp[t] from
// the two Comp words. Over all pairs of a cyclic graph, Reach, TryReach
// and ReachCounted each call the inner index exactly once per pair with
// Comp[s] > Comp[t] and never otherwise, and every answer is exact.
func TestCondensedCutsBeforeInner(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 2000, M: 3000, Seed: 7})
	var inner *countingIndex
	var cond *scc.Condensation
	ix := core.ForGeneralPrepared(g, nil, 0, 0, nil, func(c *scc.Condensation) core.Index {
		cond = c
		inner = &countingIndex{oracle: tc.NewClosure(c.DAG)}
		return inner
	})
	p, rc := ix.(core.Partial), ix.(core.ReachCounter)
	oracle := tc.NewClosure(g)
	above := 0 // pairs with Comp[s] > Comp[t]
	for s := graph.V(0); int(s) < g.N(); s++ {
		for tt := graph.V(0); int(tt) < g.N(); tt++ {
			if cond.Comp[s] > cond.Comp[tt] {
				above++
			}
		}
	}
	if above == 0 || above == g.N()*g.N() {
		t.Fatalf("%d of %d pairs above the cut: the graph does not exercise it", above, g.N()*g.N())
	}
	for name, ask := range map[string]func(s, t graph.V) bool{
		"Reach":        ix.Reach,
		"TryReach":     func(s, t graph.V) bool { r, _ := p.TryReach(s, t); return r },
		"ReachCounted": func(s, t graph.V) bool { r, _, _ := rc.ReachCounted(s, t); return r },
	} {
		inner.calls = 0
		for s := graph.V(0); int(s) < g.N(); s++ {
			for tt := graph.V(0); int(tt) < g.N(); tt++ {
				before := inner.calls
				if got, want := ask(s, tt), oracle.Reach(s, tt); got != want {
					t.Fatalf("%s(%d,%d) = %v, want %v", name, s, tt, got, want)
				}
				wantCalls := 0
				if cond.Comp[s] > cond.Comp[tt] {
					wantCalls = 1
				}
				if inner.calls-before != wantCalls {
					t.Fatalf("%s(%d,%d): %d inner calls with Comp %d -> %d, want %d",
						name, s, tt, inner.calls-before, cond.Comp[s], cond.Comp[tt], wantCalls)
				}
			}
		}
		if inner.calls != above {
			t.Fatalf("%s: %d inner calls over all pairs, want %d", name, inner.calls, above)
		}
	}
}

// TestCondensedBatchWithoutBlockAsksReach: over an inner index without a
// block form a batch is the per-pair path. Uninstrumented, the adapter
// asks the inner index's own Reach once per pair with Comp[s] > Comp[t]
// and nothing else; instrumented, the batch makes the inner calls and
// advances the counters that Instrumented.Reach makes and advances over
// the same pairs.
func TestCondensedBatchWithoutBlockAsksReach(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 2000, M: 3000, Seed: 7})
	var inner *countingIndex
	var cond *scc.Condensation
	ix := core.ForGeneralPrepared(g, nil, 0, 0, nil, func(c *scc.Condensation) core.Index {
		cond = c
		inner = &countingIndex{oracle: tc.NewClosure(c.DAG)}
		return inner
	})
	oracle := tc.NewClosure(g)
	rng := rand.New(rand.NewSource(9))
	pairs := make([]core.Pair, core.BatchInline/2+core.BatchBlock+5)
	uncut := 0
	for i := range pairs {
		pairs[i] = core.Pair{S: graph.V(rng.Intn(g.N())), T: graph.V(rng.Intn(g.N()))}
		if cond.Comp[pairs[i].S] > cond.Comp[pairs[i].T] {
			uncut++
		}
	}
	out := make([]bool, len(pairs))
	if err := core.BatchReach(context.Background(), ix, pairs, out, 1); err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if out[i] != oracle.Reach(p.S, p.T) {
			t.Fatalf("pair %d (%d,%d) = %v", i, p.S, p.T, out[i])
		}
	}
	if inner.calls != uncut || inner.reaches != uncut {
		t.Errorf("raw batch: %d inner calls, %d through Reach, want both %d", inner.calls, inner.reaches, uncut)
	}

	perPair, batched := &obs.IndexMetrics{}, &obs.IndexMetrics{}
	inner.calls, inner.reaches = 0, 0
	w := core.Instrument(ix, nil, perPair)
	for _, p := range pairs {
		w.Reach(p.S, p.T)
	}
	wantCalls, wantReaches := inner.calls, inner.reaches
	inner.calls, inner.reaches = 0, 0
	if err := core.BatchReach(context.Background(), core.Instrument(ix, nil, batched), pairs, out, 1); err != nil {
		t.Fatal(err)
	}
	if inner.calls != wantCalls || inner.reaches != wantReaches {
		t.Errorf("instrumented batch: %d inner calls (%d through Reach), per pair %d (%d)",
			inner.calls, inner.reaches, wantCalls, wantReaches)
	}
	a, b := perPair.Snapshot(), batched.Snapshot()
	if a.Queries != b.Queries || a.Positive != b.Positive || a.Decided != b.Decided ||
		a.Fallback != b.Fallback || a.Visited != b.Visited || a.Latency.Count != b.Latency.Count {
		t.Errorf("instrumented batch counters %+v, per pair %+v", b, a)
	}
}

// blockIndex is countingIndex with a block form: ReachBlock counts its
// calls and the pairs it is handed, and reports every pair as a fallback
// that expanded two vertices.
type blockIndex struct {
	countingIndex
	blocks, pairs atomic.Int64
	cut           atomic.Int64 // pairs handed over with s <= t
}

func (b *blockIndex) ReachBlock(ps []core.Pair, out []bool) (fallback, visited int) {
	b.blocks.Add(1)
	b.pairs.Add(int64(len(ps)))
	for i, p := range ps {
		if p.S <= p.T {
			b.cut.Add(1)
		}
		out[i] = b.oracle.Reach(p.S, p.T)
	}
	return len(ps), 2 * len(ps)
}

// TestCondensedBatchCallsBlockOncePerBlock: a batch through the
// condensation adapter costs its inner BlockReacher one ReachBlock call
// per block of core.BatchBlock pairs that has a pair with Comp[s] >
// Comp[t], and nothing else: no per-pair call, no call for a block the
// component cut settles whole, and no pair the cut settles. Through the
// instrumented wrapper the block tallies reach the counters: every pair
// is a query, every handed-over pair a fallback of two visits, and
// Latency.Count is one sample per 32 pairs. Inline and on the pool alike.
func TestCondensedBatchCallsBlockOncePerBlock(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 2000, M: 3000, Seed: 7})
	var inner *blockIndex
	var cond *scc.Condensation
	ix := core.ForGeneralPrepared(g, nil, 0, 0, nil, func(c *scc.Condensation) core.Index {
		cond = c
		inner = &blockIndex{countingIndex: countingIndex{oracle: tc.NewClosure(c.DAG)}}
		return inner
	})
	oracle := tc.NewClosure(g)
	rng := rand.New(rand.NewSource(8))
	// Random pairs, then three blocks the cut settles whole (s == t),
	// then a ragged tail.
	n := 4*core.BatchInline + 3*core.BatchBlock + 17
	pairs := make([]core.Pair, n)
	for i := range pairs {
		pairs[i] = core.Pair{S: graph.V(rng.Intn(g.N())), T: graph.V(rng.Intn(g.N()))}
		if i >= 4*core.BatchInline && i < 4*core.BatchInline+3*core.BatchBlock {
			pairs[i].T = pairs[i].S
		}
	}
	wantBlocks, uncut := 0, 0
	for lo := 0; lo < n; lo += core.BatchBlock {
		k := 0
		for _, p := range pairs[lo:min(lo+core.BatchBlock, n)] {
			if cond.Comp[p.S] > cond.Comp[p.T] {
				k++
			}
		}
		if k > 0 {
			wantBlocks++
		}
		uncut += k
	}
	if wantBlocks == (n+core.BatchBlock-1)/core.BatchBlock || uncut == 0 {
		t.Fatalf("%d blocks to call, %d uncut pairs: the batch does not exercise the cut", wantBlocks, uncut)
	}
	for _, workers := range []int{1, 2} {
		for _, instrumented := range []bool{false, true} {
			inner.blocks.Store(0)
			inner.pairs.Store(0)
			m := &obs.IndexMetrics{}
			batch := core.Index(ix)
			if instrumented {
				batch = core.Instrument(ix, nil, m)
			}
			out := make([]bool, n)
			if err := core.BatchReach(context.Background(), batch, pairs, out, workers); err != nil {
				t.Fatal(err)
			}
			for i, p := range pairs {
				if out[i] != oracle.Reach(p.S, p.T) {
					t.Fatalf("workers=%d instrumented=%v: pair %d (%d,%d) = %v", workers, instrumented, i, p.S, p.T, out[i])
				}
			}
			if got := inner.blocks.Load(); got != int64(wantBlocks) {
				t.Errorf("workers=%d instrumented=%v: %d ReachBlock calls, want %d", workers, instrumented, got, wantBlocks)
			}
			if got := inner.pairs.Load(); got != int64(uncut) {
				t.Errorf("workers=%d instrumented=%v: %d pairs handed over, want the %d uncut", workers, instrumented, got, uncut)
			}
			if !instrumented {
				continue
			}
			snap := m.Snapshot()
			if snap.Queries != int64(n) || snap.Fallback != int64(uncut) || snap.Visited != int64(2*uncut) ||
				snap.Batches != 1 || snap.BatchQueries != int64(n) {
				t.Errorf("workers=%d: counters %+v, want %d queries, %d fallbacks, %d visited, one batch",
					workers, snap, n, uncut, 2*uncut)
			}
			if want := int64((n + 31) / 32); snap.Latency.Count != want {
				t.Errorf("workers=%d: %d latency samples for %d pairs, want %d", workers, snap.Latency.Count, n, want)
			}
		}
	}
	if inner.calls != 0 || inner.cut.Load() != 0 {
		t.Errorf("%d per-pair calls and %d cut pairs reached the inner index, want none", inner.calls, inner.cut.Load())
	}
}

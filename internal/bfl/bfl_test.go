package bfl

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/indextest"
	"repro/internal/scc"
	"repro/internal/tc"
)

// build condenses g and builds BFL over the condensation, as reach.Build
// does: BFL reads Tarjan's order, so it never indexes a raw DAG.
func build(g *graph.Digraph, opts Options) (*Index, *scc.Condensation) {
	c := scc.Condense(g, 0)
	return New(c, opts), c
}

// lifted returns a builder of BFL through the condensation adapter, with
// tweak applied to the inner index.
func lifted(opts Options, tweak func(*Index) *Index) func(*graph.Digraph) core.Index {
	return func(g *graph.Digraph) core.Index {
		return core.ForGeneralPrepared(g, nil, 0, 0, nil, func(c *scc.Condensation) core.Index {
			return tweak(New(c, opts))
		})
	}
}

func asIs(ix *Index) *Index { return ix }

func TestConformance(t *testing.T) {
	indextest.CheckGeneralIndex(t, lifted(Options{Seed: 1}, asIs))
}

func TestPartialSoundness(t *testing.T) {
	indextest.CheckPartialSoundness(t, lifted(Options{Seed: 2}, asIs))
}

// narrow sets every filter word from the keep-th on to all ones (in7 is
// Lin's fourth word), so those words never refute and ix behaves as BFL
// with keep-word filters (keep = 0: the id cut and the interval are the
// only tests).
func narrow(ix *Index, keep int) *Index {
	for i := range ix.rec {
		r := &ix.rec[i]
		for k := keep; k < len(r.out); k++ {
			r.out[k] = ^uint64(0)
		}
		for k := keep; k < len(r.in); k++ {
			r.in[k] = ^uint64(0)
		}
		if keep <= len(r.in) {
			r.in7 = ^uint32(0)
		}
	}
	return ix
}

func TestTinyFilterStillExact(t *testing.T) {
	// Saturated filters decide nothing; guided DFS must still give exact
	// answers, on the id cut and the interval alone.
	indextest.CheckGeneralIndex(t, lifted(Options{Seed: 3}, func(ix *Index) *Index { return narrow(ix, 0) }))
}

func TestNoFalseNegatives(t *testing.T) {
	// The §3.3 AP() contract: lookup-only answers never deny a real path.
	g := gen.RandomDAG(gen.Config{N: 300, M: 900, Seed: 4})
	ix := lifted(Options{Seed: 5}, asIs)(g).(core.Partial)
	oracle := tc.NewClosure(g)
	for s := graph.V(0); int(s) < g.N(); s += 2 {
		for tt := graph.V(0); int(tt) < g.N(); tt += 3 {
			if oracle.Reach(s, tt) {
				if r, dec := ix.TryReach(s, tt); dec && !r {
					t.Fatalf("false negative at (%d,%d)", s, tt)
				}
			}
		}
	}
}

func TestFilterSubsetInvariant(t *testing.T) {
	// The §3.3 AP() contract at the filter level: u → v implies
	// Lout(v) ⊆ Lout(u) and Lin(u) ⊆ Lin(v), for every condensation edge
	// (hence, transitively, every reachable pair); and ids, Tarjan's
	// postorder, fall along every edge.
	ix, c := build(gen.RandomDAG(gen.Config{N: 250, M: 750, Seed: 9}), Options{Seed: 10})
	c.DAG.Edges(func(e graph.Edge) bool {
		if e.To >= e.From {
			t.Fatalf("edge %d -> %d: the id does not fall", e.From, e.To)
		}
		from, to := &ix.rec[e.From], &ix.rec[e.To]
		for j := range from.out {
			if to.out[j]&^from.out[j] != 0 {
				t.Fatalf("Lout(%d) ⊄ Lout(%d) across edge", e.To, e.From)
			}
		}
		for j := range from.in {
			if from.in[j]&^to.in[j] != 0 {
				t.Fatalf("Lin(%d) ⊄ Lin(%d) across edge", e.From, e.To)
			}
		}
		if from.in7&^to.in7 != 0 {
			t.Fatalf("Lin(%d) ⊄ Lin(%d) across edge (bits 192–223)", e.From, e.To)
		}
		return true
	})
}

func TestWiderFiltersPruneMore(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 400, M: 1200, Seed: 6})
	count := func(keep int) int {
		ix, _ := build(g, Options{Seed: 7})
		narrow(ix, keep)
		decided := 0
		for s := graph.V(0); int(s) < g.N(); s += 4 {
			for tt := graph.V(0); int(tt) < g.N(); tt += 4 {
				if _, dec := ix.TryReach(s, tt); dec {
					decided++
				}
			}
		}
		return decided
	}
	if small, full := count(1), count(4); full <= small {
		t.Errorf("256/224-bit filters decided %d <= 64/64-bit %d", full, small)
	}
}

// TestBFLReachCountedMatchesGuidedDFS: BFL's own DFS loop answers and
// counts expansions exactly as the generic core.CountingGuidedDFS with
// TryReach as the filter, directly and through the condensation adapter.
func TestBFLReachCountedMatchesGuidedDFS(t *testing.T) {
	same := func(t *testing.T, name string, g *graph.Digraph, ix *Index, pairs []gen.Query) {
		t.Helper()
		for _, q := range pairs {
			want, wantN := core.CountingGuidedDFS(g, q.S, q.T, ix.TryReach)
			got, gotN, decided := ix.ReachCounted(q.S, q.T)
			if got != want || gotN != wantN || decided != (wantN == 0) {
				t.Fatalf("%s (%d,%d): ReachCounted = %v, %d, %v; CountingGuidedDFS = %v, %d",
					name, q.S, q.T, got, gotN, decided, want, wantN)
			}
			if ix.Reach(q.S, q.T) != want {
				t.Fatalf("%s (%d,%d): Reach disagrees with ReachCounted", name, q.S, q.T)
			}
		}
	}
	allPairs := func(g *graph.Digraph) []gen.Query {
		var qs []gen.Query
		for s := graph.V(0); int(s) < g.N(); s++ {
			for tt := graph.V(0); int(tt) < g.N(); tt++ {
				qs = append(qs, gen.Query{S: s, T: tt})
			}
		}
		return qs
	}

	fig1, fig1c := build(graph.Fig1Plain(), Options{Seed: 1})
	same(t, "fig1", fig1c.DAG, fig1, allPairs(fig1c.DAG))

	dag := gen.RandomDAG(gen.Config{N: 10_000, M: 40_000, Seed: 11})
	big, bigc := build(dag, Options{Seed: 13})
	// The pairs, 30 % positive, in the condensation's ids.
	var qs []gen.Query
	for _, q := range gen.QueriesWithRatio(dag, 20_000, 0.3, 12) {
		qs = append(qs, gen.Query{S: bigc.Comp[q.S], T: bigc.Comp[q.T]})
	}
	same(t, "dag-1e4", bigc.DAG, big, qs)
	// Saturated filters force long fallbacks: the loop's bookkeeping is
	// exercised, not just its first probe.
	unfiltered, _ := build(dag, Options{Seed: 13})
	same(t, "dag-1e4-unfiltered", bigc.DAG, narrow(unfiltered, 0), qs[:2_000])

	// A cyclic graph through the condensation adapter.
	cyc := gen.ErdosRenyi(gen.Config{N: 300, M: 900, Seed: 14})
	cond := scc.Condense(cyc, 0)
	inner := New(cond, Options{Seed: 15})
	adapted, err := core.ForGeneralLoaded(cyc, nil, 0, nil, func(*graph.Digraph) (core.Index, error) { return inner, nil })
	if err != nil {
		t.Fatal(err)
	}
	rc := adapted.(core.ReachCounter)
	oracle := tc.NewClosure(cyc)
	for _, q := range allPairs(cyc) {
		cs, ct := cond.Comp[q.S], cond.Comp[q.T]
		want, wantN := true, 0
		if cs != ct {
			want, wantN = core.CountingGuidedDFS(cond.DAG, cs, ct, inner.TryReach)
		}
		got, gotN, _ := rc.ReachCounted(q.S, q.T)
		if got != want || gotN != wantN || got != oracle.Reach(q.S, q.T) {
			t.Fatalf("cyclic (%d,%d): adapter = %v, %d; CountingGuidedDFS = %v, %d; oracle %v",
				q.S, q.T, got, gotN, want, wantN, oracle.Reach(q.S, q.T))
		}
	}
}

// TestReachBlockMatchesPerPair: ReachBlock answers a block as per-pair
// ReachCounted does, and its fallback and visited totals are the sums of
// what ReachCounted reports for the same pairs — on the condensations of a
// random DAG and of a cyclic ER graph, with saturated filters too (every
// pair past the id cut and the interval then runs the guided DFS), cut
// into blocks of 1, 63, 64, 65 and 1000 pairs. The pairs include s == t,
// s < t (the id cut) and known positives.
func TestReachBlockMatchesPerPair(t *testing.T) {
	for _, in := range []struct {
		name string
		g    *graph.Digraph
	}{
		{"dag", gen.RandomDAG(gen.Config{N: 5_000, M: 20_000, Seed: 21})},
		{"er", gen.ErdosRenyi(gen.Config{N: 5_000, M: 7_500, Seed: 22})},
	} {
		c := scc.Condense(in.g, 0)
		var ps []core.Pair
		for _, q := range gen.QueriesWithRatio(in.g, 3_000, 0.3, 23) {
			ps = append(ps, core.Pair{S: c.Comp[q.S], T: c.Comp[q.T]})
		}
		for v := graph.V(0); v < 200; v++ {
			w := graph.V(c.DAG.N()-1) - v
			ps = append(ps, core.Pair{S: v, T: v}, core.Pair{S: v, T: w}, core.Pair{S: w, T: v})
		}
		for _, filters := range []string{"filtered", "saturated"} {
			ix := New(c, Options{Seed: 24})
			if filters == "saturated" {
				narrow(ix, 0)
			}
			want := make([]bool, len(ps))
			wantFallback, wantVisited := 0, 0
			for i, p := range ps {
				r, n, decided := ix.ReachCounted(p.S, p.T)
				want[i] = r
				if !decided {
					wantFallback++
					wantVisited += n
				}
			}
			if wantFallback == 0 {
				t.Fatalf("%s/%s: no pair falls back: phase 2 is not exercised", in.name, filters)
			}
			for _, size := range []int{1, 63, 64, 65, 1000} {
				got := make([]bool, len(ps))
				fallback, visited := 0, 0
				for lo := 0; lo < len(ps); lo += size {
					hi := min(lo+size, len(ps))
					f, v := ix.ReachBlock(ps[lo:hi], got[lo:hi])
					fallback += f
					visited += v
				}
				for i := range ps {
					if got[i] != want[i] {
						t.Fatalf("%s/%s, blocks of %d: pair %d (%d,%d) = %v, ReachCounted says %v",
							in.name, filters, size, i, ps[i].S, ps[i].T, got[i], want[i])
					}
				}
				if fallback != wantFallback || visited != wantVisited {
					t.Errorf("%s/%s, blocks of %d: fallback %d, visited %d; per pair %d, %d",
						in.name, filters, size, fallback, visited, wantFallback, wantVisited)
				}
			}
		}
	}
}

// TestBFLRecordIsOneLine: a record is one 64-byte line and the record
// array starts on a line boundary, built or decoded from a snapshot.
func TestBFLRecordIsOneLine(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size != 64 {
		t.Fatalf("record is %d bytes, want 64", size)
	}
	aligned := func(rec []record) bool { return uintptr(unsafe.Pointer(&rec[0]))%64 == 0 }
	for _, n := range []int{1, 7, 100, 10_000, 100_000} {
		ix, c := build(gen.RandomDAG(gen.Config{N: n, M: 3 * (n - 1), Seed: int64(n)}), Options{})
		if !aligned(ix.rec) {
			t.Errorf("n=%d: built records start at %p, not 64-aligned", n, &ix.rec[0])
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := readStream(buf.Bytes(), c.DAG)
		if err != nil {
			t.Fatal(err)
		}
		if !aligned(got.rec) {
			t.Errorf("n=%d: loaded records start at %p, not 64-aligned", n, &got.rec[0])
		}
	}
}

// TestFootprint: one 64-byte record a vertex — 60 bytes of filters and 4
// of interval — and the sections sum to Stats().Bytes, directly and
// through the condensation adapter (which adds 4 bytes a vertex of Comp).
func TestFootprint(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 500, M: 1500, Seed: 16})
	ix, _ := build(g, Options{})
	if st := ix.Stats(); st.Entries != 500 || st.Bytes != 64*500 {
		t.Errorf("Stats = %d entries, %d bytes; want 500, %d", st.Entries, st.Bytes, 64*500)
	}
	if sz := ix.Sizes(); sz.Offsets != 0 || sz.Labels != 60*500 || sz.Aux != 4*500 {
		t.Errorf("Sizes = %+v, want labels %d, aux %d", sz, 60*500, 4*500)
	}
	adapted := lifted(Options{}, asIs)(g)
	for name, x := range map[string]core.Index{"direct": ix, "adapter": adapted} {
		sz, ok := core.SizesOf(x)
		if !ok || sz.Total() != x.Stats().Bytes {
			t.Errorf("%s: sections %+v sum to %d, Stats().Bytes = %d", name, sz, sz.Total(), x.Stats().Bytes)
		}
	}
}

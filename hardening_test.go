package reach

// Tests for the hardened serving layer: typed errors at every public entry
// point, cooperative build cancellation, panic containment, degraded-mode
// serving, and the deterministic fault-injection harness. Run under -race
// in CI — the containment paths cross goroutine pools.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/scc"
	"repro/internal/tc"
)

// The survey kinds these tests name by string: internal/survey registers
// them, and survey_test.go links it into this test binary.
const (
	kindTwoHop Kind = "2hop"
	kindTFL    Kind = "tfl"
)

// TestVertexRangePlainKinds drives every plain index kind through the DB
// entry points with out-of-range vertices: each must return
// ErrVertexRange, never panic.
func TestVertexRangePlainKinds(t *testing.T) {
	pg := Fig1Plain()
	bad := V(pg.N() + 7)
	for _, k := range Kinds() {
		db, err := NewDB(pg, DBConfig{Plain: k})
		if err != nil {
			t.Fatalf("%s: NewDB: %v", k, err)
		}
		if _, err := db.Reach(0, bad); !errors.Is(err, ErrVertexRange) {
			t.Errorf("%s: Reach(0, %d) err = %v, want ErrVertexRange", k, bad, err)
		}
		if _, err := db.Reach(bad, 0); !errors.Is(err, ErrVertexRange) {
			t.Errorf("%s: Reach(%d, 0) err = %v, want ErrVertexRange", k, bad, err)
		}
		if _, err := db.ReachPath(0, bad); !errors.Is(err, ErrVertexRange) {
			t.Errorf("%s: ReachPath(0, %d) err = %v, want ErrVertexRange", k, bad, err)
		}
		if _, err := db.Query(bad, 0, "x*"); !errors.Is(err, ErrVertexRange) {
			t.Errorf("%s: Query(%d, 0) err = %v, want ErrVertexRange", k, bad, err)
		}
	}
}

// TestVertexRangeLCRKinds does the same over every LCR kind (with the RLC
// index riding along) on the labeled Figure 1 graph.
func TestVertexRangeLCRKinds(t *testing.T) {
	lg := Fig1Labeled()
	bad := V(lg.N() + 3)
	for _, k := range LCRKinds() {
		db, err := NewDB(lg, DBConfig{LCR: k})
		if err != nil {
			t.Fatalf("%s: NewDB: %v", k, err)
		}
		if _, err := db.QueryAllowed(0, bad, 0); !errors.Is(err, ErrVertexRange) {
			t.Errorf("%s: QueryAllowed err = %v, want ErrVertexRange", k, err)
		}
		if _, err := db.Query(bad, 0, "(friendOf)*"); !errors.Is(err, ErrVertexRange) {
			t.Errorf("%s: Query LCR err = %v, want ErrVertexRange", k, err)
		}
		if _, err := db.Query(0, bad, "(worksFor.friendOf)*"); !errors.Is(err, ErrVertexRange) {
			t.Errorf("%s: Query RLC err = %v, want ErrVertexRange", k, err)
		}
		if _, err := db.QueryPath(0, bad, "(friendOf)*"); !errors.Is(err, ErrVertexRange) {
			t.Errorf("%s: QueryPath err = %v, want ErrVertexRange", k, err)
		}
	}
}

// TestVertexRangeBatch verifies batch submissions validate every pair
// before running any query.
func TestVertexRangeBatch(t *testing.T) {
	pg := Fig1Plain()
	ix, err := Build(KindPLL, pg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BatchReach(ix, pg, []Pair{{S: 0, T: 1}, {S: 0, T: V(pg.N())}}, 2); !errors.Is(err, ErrVertexRange) {
		t.Errorf("BatchReach err = %v, want ErrVertexRange", err)
	}
}

// TestBadOptionsAllKinds sweeps each negative option through every build
// entry point: all must reject with ErrBadOptions before any work runs.
func TestBadOptionsAllKinds(t *testing.T) {
	badOpts := []Options{{K: -1}, {Bits: -2}, {MaxSeq: -3}, {Workers: -4}}
	pg := Fig1Plain()
	for _, k := range Kinds() {
		for _, opt := range badOpts {
			if _, err := Build(k, pg, opt); !errors.Is(err, ErrBadOptions) {
				t.Errorf("Build(%s, %+v) err = %v, want ErrBadOptions", k, opt, err)
			}
		}
	}
	lg := Fig1Labeled()
	for _, k := range LCRKinds() {
		for _, opt := range badOpts {
			if _, err := BuildLCR(k, lg, opt); !errors.Is(err, ErrBadOptions) {
				t.Errorf("BuildLCR(%s, %+v) err = %v, want ErrBadOptions", k, opt, err)
			}
		}
	}
	for _, opt := range badOpts {
		if _, err := BuildRLC(lg, opt); !errors.Is(err, ErrBadOptions) {
			t.Errorf("BuildRLC(%+v) err = %v, want ErrBadOptions", opt, err)
		}
	}
	if _, err := Build(KindBFL, nil, Options{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Build(nil graph) err = %v, want ErrBadOptions", err)
	}
	if _, err := BuildLCR(LCRP2H, pg, Options{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("BuildLCR(unlabeled) err = %v, want ErrBadOptions", err)
	}
	if _, err := BuildRLC(pg, Options{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("BuildRLC(unlabeled) err = %v, want ErrBadOptions", err)
	}
	if _, err := NewDB(nil, DBConfig{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("NewDB(nil graph) err = %v, want ErrBadOptions", err)
	}
}

// TestBuildCtxPreCanceled: a context canceled before the build starts
// must return ErrBuildCanceled from every kind without building anything.
func TestBuildCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pg := Fig1Plain()
	for _, k := range Kinds() {
		if _, err := BuildCtx(ctx, k, pg, Options{}); !errors.Is(err, ErrBuildCanceled) {
			t.Errorf("BuildCtx(%s) err = %v, want ErrBuildCanceled", k, err)
		}
	}
	lg := Fig1Labeled()
	for _, k := range LCRKinds() {
		if _, err := buildLCRCtx(ctx, k, lg, Options{}); !errors.Is(err, ErrBuildCanceled) {
			t.Errorf("buildLCRCtx(%s) err = %v, want ErrBuildCanceled", k, err)
		}
	}
	if _, err := buildRLCCtx(ctx, lg, Options{}); !errors.Is(err, ErrBuildCanceled) {
		t.Errorf("BuildRLCCtx err = %v, want ErrBuildCanceled", err)
	}
	if _, err := NewDBCtx(ctx, pg, DBConfig{}); !errors.Is(err, ErrBuildCanceled) {
		t.Errorf("NewDBCtx err = %v, want ErrBuildCanceled", err)
	}
}

// TestCancelMidBuildTwoHop cancels a 2-hop construction over a 50k-vertex
// graph shortly after it starts: the build must abandon with
// ErrBuildCanceled far sooner than the full construction would take
// (greedy 2-hop cover at this scale runs for minutes).
func TestCancelMidBuildTwoHop(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-vertex build in -short mode")
	}
	g := gen.RandomDAG(gen.Config{N: 50000, M: 150000, Seed: 11})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := BuildCtx(ctx, kindTwoHop, g, Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBuildCanceled) {
		t.Fatalf("err = %v, want ErrBuildCanceled", err)
	}
	if !strings.Contains(err.Error(), "build/2hop") {
		t.Errorf("error does not name the checkpoint: %v", err)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v — checkpoints are not firing", elapsed)
	}
}

// TestCancelMidBuildZouGTC does the same for the quadratic GTC
// materialization the survey warns about (§4.1.2).
func TestCancelMidBuildZouGTC(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-vertex build in -short mode")
	}
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: 50000, M: 150000, Seed: 12}), 4, 0.6, 12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := buildLCRCtx(ctx, LCRZouGTC, g, Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBuildCanceled) {
		t.Fatalf("err = %v, want ErrBuildCanceled", err)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v — checkpoints are not firing", elapsed)
	}
}

// TestDegradedLCRServing fails the LCR build with an injected panic and
// checks the DB still answers alternation queries correctly — validated
// against the exact GTC oracle — through the degraded traversal route.
func TestDegradedLCRServing(t *testing.T) {
	lg := Fig1Labeled()
	faultinject.Activate(&faultinject.Plan{Site: "build/lcr/p2h", Kind: faultinject.Panic, After: 3})
	defer faultinject.Deactivate()
	db, err := NewDB(lg, DBConfig{Degraded: true, Metrics: true})
	faultinject.Deactivate()
	if err != nil {
		t.Fatalf("degraded NewDB: %v", err)
	}
	dr := db.DegradedRoutes()
	if derr := dr["lcr"]; derr == nil || !errors.Is(derr, ErrIndexPanic) {
		t.Fatalf("DegradedRoutes = %v, want lcr → ErrIndexPanic", dr)
	}
	oracle := tc.NewGTC(lg)
	n := lg.N()
	for _, mask := range []uint64{1, 2, 3, 5, 7} {
		var labels []Label
		for l := 0; l < lg.Labels(); l++ {
			if mask&(1<<uint(l)) != 0 {
				labels = append(labels, Label(l))
			}
		}
		for s := 0; s < n; s++ {
			for tt := 0; tt < n; tt++ {
				got, err := db.QueryAllowed(V(s), V(tt), labels...)
				if err != nil {
					t.Fatalf("degraded QueryAllowed(%d,%d): %v", s, tt, err)
				}
				want := s == tt || oracle.ReachLC(V(s), V(tt), labelSet(mask))
				if got != want {
					t.Fatalf("degraded QueryAllowed(%d,%d,mask=%b) = %v, oracle %v", s, tt, mask, got, want)
				}
			}
		}
	}
	// Query routes the §2.2 worked example through the degraded path too.
	a, g := vertex(t, db, "A"), vertex(t, db, "G")
	if ok, err := db.Query(a, g, "(friendOf|follows)*"); err != nil || ok {
		t.Errorf("degraded Query(A,G,(friendOf|follows)*) = %v, %v; want false", ok, err)
	}
	snap, ok := db.MetricsSnapshot()
	if !ok {
		t.Fatal("metrics enabled but no snapshot")
	}
	if len(snap.Degraded) != 1 || snap.Degraded[0] != "lcr" {
		t.Errorf("snapshot degraded = %v, want [lcr]", snap.Degraded)
	}
	if snap.Panics != 1 {
		t.Errorf("snapshot panics = %d, want 1", snap.Panics)
	}
	if _, ok := db.Stats()["degraded:lcr"]; !ok {
		t.Errorf("Stats() missing degraded:lcr entry: %v", db.Stats())
	}
	if _, ok := snap.Routes["degraded-lcr"]; !ok {
		t.Errorf("snapshot routes missing degraded-lcr: %v", snap.Routes)
	}
}

// TestDegradedRLCServing fails the RLC build and checks concatenation
// queries fall back to the online phase-tracking search.
func TestDegradedRLCServing(t *testing.T) {
	lg := Fig1Labeled()
	faultinject.Activate(&faultinject.Plan{Site: "build/rlc", Kind: faultinject.Panic, After: 2})
	defer faultinject.Deactivate()
	db, err := NewDB(lg, DBConfig{Degraded: true})
	faultinject.Deactivate()
	if err != nil {
		t.Fatalf("degraded NewDB: %v", err)
	}
	if derr := db.DegradedRoutes()["rlc"]; derr == nil || !errors.Is(derr, ErrIndexPanic) {
		t.Fatalf("DegradedRoutes = %v, want rlc → ErrIndexPanic", db.DegradedRoutes())
	}
	// §4.2 worked example: Qr(L, B, (worksFor·friendOf)*) = true.
	l, b := vertex(t, db, "L"), vertex(t, db, "B")
	if ok, err := db.Query(l, b, "(worksFor.friendOf)*"); err != nil || !ok {
		t.Errorf("degraded Query(L,B,(worksFor.friendOf)*) = %v, %v; want true", ok, err)
	}
	a, g := vertex(t, db, "A"), vertex(t, db, "G")
	if ok, err := db.Query(a, g, "(worksFor.friendOf)*"); err != nil || ok {
		t.Errorf("degraded Query(A,G,(worksFor.friendOf)*) = %v, %v; want false", ok, err)
	}
	if _, ok := db.Stats()["degraded:rlc"]; !ok {
		t.Errorf("Stats() missing degraded:rlc entry: %v", db.Stats())
	}
}

// TestDegradedViaCancel degrades through the cancellation path: the
// injected fault cancels the build's own context at an exact checkpoint.
// The canceled LCR build — and the RLC build behind it, whose context is
// by then dead — both degrade, and the DB still serves. The graph must be
// large enough that the build crosses another stride-64 context poll
// after the cancel fires; Figure 1 would finish before noticing.
func TestDegradedViaCancel(t *testing.T) {
	lg := gen.Zipf(gen.ErdosRenyi(gen.Config{N: 2000, M: 8000, Seed: 13}), 4, 0.6, 13)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Activate(&faultinject.Plan{
		Site: "build/lcr/zougtc", Kind: faultinject.Cancel, After: 5, Cancel: cancel,
	})
	defer faultinject.Deactivate()
	db, err := NewDBCtx(ctx, lg, DBConfig{LCR: LCRZouGTC, Degraded: true})
	faultinject.Deactivate()
	if err != nil {
		t.Fatalf("degraded NewDBCtx: %v", err)
	}
	dr := db.DegradedRoutes()
	if derr := dr["lcr"]; derr == nil || !errors.Is(derr, ErrBuildCanceled) {
		t.Fatalf("DegradedRoutes[lcr] = %v, want ErrBuildCanceled", derr)
	}
	if derr := dr["rlc"]; derr == nil || !errors.Is(derr, ErrBuildCanceled) {
		t.Fatalf("DegradedRoutes[rlc] = %v, want ErrBuildCanceled", derr)
	}
	// Degraded answers still agree with the exact GTC oracle.
	oracle := tc.NewGTC(lg)
	all := labelSet(1<<uint(lg.Labels()) - 1)
	labels := []Label{0, 1, 2, 3}
	for s := 0; s < 40; s++ {
		for tt := 40; tt < 80; tt++ {
			got, err := db.QueryAllowed(V(s), V(tt), labels...)
			if err != nil {
				t.Fatalf("degraded QueryAllowed(%d,%d): %v", s, tt, err)
			}
			want := s == tt || oracle.ReachLC(V(s), V(tt), all)
			if got != want {
				t.Fatalf("degraded QueryAllowed(%d,%d) = %v, oracle %v", s, tt, got, want)
			}
		}
	}
}

// TestDegradedNotConfigured: without cfg.Degraded the same injected fault
// must fail NewDB with the typed error, not come up silently degraded.
func TestDegradedNotConfigured(t *testing.T) {
	lg := Fig1Labeled()
	faultinject.Activate(&faultinject.Plan{Site: "build/lcr/p2h", Kind: faultinject.Panic, After: 3})
	defer faultinject.Deactivate()
	_, err := NewDB(lg, DBConfig{})
	faultinject.Deactivate()
	if !errors.Is(err, ErrIndexPanic) {
		t.Fatalf("NewDB err = %v, want ErrIndexPanic", err)
	}
}

// panicIndex stands in for an index with a query-time bug.
type panicIndex struct{}

func (panicIndex) Name() string      { return "panicky" }
func (panicIndex) Stats() Stats      { return Stats{} }
func (panicIndex) Reach(s, t V) bool { panic("query-time bug") }

// TestQueryPanicContainment: a panic inside an index during a query is
// contained at the DB boundary as ErrIndexPanic and counted.
func TestQueryPanicContainment(t *testing.T) {
	pg := Fig1Plain()
	db, err := NewDB(pg, DBConfig{PlainIndex: panicIndex{}, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Reach(0, 1); !errors.Is(err, ErrIndexPanic) {
		t.Fatalf("Reach err = %v, want ErrIndexPanic", err)
	}
	if _, err := db.ReachPath(0, 1); !errors.Is(err, ErrIndexPanic) {
		t.Fatalf("ReachPath err = %v, want ErrIndexPanic", err)
	}
	snap := db.metrics.Snapshot()
	if snap.Panics != 2 || snap.Errors != 2 {
		t.Errorf("panics/errors = %d/%d, want 2/2", snap.Panics, snap.Errors)
	}
	// The error message carries the panic value and a stack for the logs.
	_, err = db.Reach(0, 1)
	if !strings.Contains(err.Error(), "query-time bug") {
		t.Errorf("error does not carry the panic value: %v", err)
	}
}

// panicBlockIndex is a DAG index with a query-time bug in its block form.
type panicBlockIndex struct{ panicIndex }

func (panicBlockIndex) ReachBlock([]core.Pair, []bool) (int, int) { panic("block-time bug") }

// TestBatchPanicContainment: a query-time panic stops the batch and
// surfaces as ErrIndexPanic on the caller — from a per-pair index and from
// a BlockReacher under the condensation adapter, on pool workers (a batch
// past core.BatchInline, with a ragged last block) and, for the block
// form, on DB.BatchReachCtx's inline path with and without metrics, where
// the DB also counts it.
func TestBatchPanicContainment(t *testing.T) {
	pg := Fig1Plain()
	n := 2*core.BatchInline + core.BatchBlock/2 + 1
	if _, err := BatchReach(panicIndex{}, pg, make([]Pair, n), 4); !errors.Is(err, ErrIndexPanic) {
		t.Fatalf("per pair: BatchReach err = %v, want ErrIndexPanic", err)
	}

	g := gen.RandomDAG(gen.Config{N: 500, M: 2000, Seed: 14})
	ix := core.ForGeneralPrepared(g, nil, 0, 0, nil, func(*scc.Condensation) Index { return panicBlockIndex{} })
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{S: V(i % g.N()), T: V(i * 7 % g.N())}
	}
	if _, err := BatchReach(ix, g, pairs, 4); !errors.Is(err, ErrIndexPanic) {
		t.Fatalf("block form, pool: BatchReach err = %v, want ErrIndexPanic", err)
	}
	for _, metrics := range []bool{false, true} {
		db, err := NewDB(g, DBConfig{PlainIndex: ix, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		if out, err := db.BatchReachCtx(context.Background(), pairs); !errors.Is(err, ErrIndexPanic) || out != nil {
			t.Fatalf("block form, inline, metrics=%v: BatchReachCtx = %v, %v; want nil, ErrIndexPanic", metrics, out, err)
		}
		if snap, ok := db.MetricsSnapshot(); ok && snap.Panics != 1 {
			t.Errorf("block form, inline: panics counter %d, want 1", snap.Panics)
		}
	}
}

// TestFaultInjectionBuildStress sweeps a deterministic family of injected
// panics across builder sites and every plain kind: whatever fires must
// surface as ErrIndexPanic — never a raw panic, never a corrupted nil/nil
// return. Run under -race in CI, so containment across the worker pool is
// also exercised.
func TestFaultInjectionBuildStress(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 400, M: 1200, Seed: 5})
	sites := []string{
		"par/claim", "core/scc-condense", "core/index-build",
		"build/2hop", "build/3hop", "build/pll", "build/dl", "build/hl",
		"build/tfl", "build/tol",
	}
	kinds := Kinds()
	for seed := int64(0); seed < 24; seed++ {
		plan := faultinject.DerivePlan(seed, sites, []faultinject.Kind{faultinject.Panic}, 40)
		faultinject.Activate(plan)
		for _, k := range kinds {
			ix, err := Build(k, g, Options{K: 2, Bits: 64, Workers: 2, Seed: seed})
			switch {
			case err == nil && ix == nil:
				t.Fatalf("seed %d kind %s: nil index with nil error", seed, k)
			case err != nil && !errors.Is(err, ErrIndexPanic):
				t.Fatalf("seed %d kind %s: err = %v, want ErrIndexPanic", seed, k, err)
			}
		}
		faultinject.Deactivate()
	}
}

// TestFaultInjectionLCRStress is the same sweep over the labeled builders.
func TestFaultInjectionLCRStress(t *testing.T) {
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: 100, M: 400, Seed: 6}), 4, 0.5, 6)
	sites := []string{"build/lcr/zougtc", "build/lcr/p2h", "build/lcr/dlcr", "build/rlc", "par/claim"}
	for seed := int64(0); seed < 16; seed++ {
		plan := faultinject.DerivePlan(seed, sites, []faultinject.Kind{faultinject.Panic}, 60)
		faultinject.Activate(plan)
		for _, k := range LCRKinds() {
			ix, err := BuildLCR(k, g, Options{Workers: 2})
			if err == nil && ix == nil {
				t.Fatalf("seed %d kind %s: nil index with nil error", seed, k)
			}
			if err != nil && !errors.Is(err, ErrIndexPanic) {
				t.Fatalf("seed %d kind %s: err = %v, want ErrIndexPanic", seed, k, err)
			}
		}
		if ix, err := BuildRLC(g, Options{MaxSeq: 2}); err == nil && ix == nil {
			t.Fatalf("seed %d rlc: nil index with nil error", seed)
		} else if err != nil && !errors.Is(err, ErrIndexPanic) {
			t.Fatalf("seed %d rlc: err = %v, want ErrIndexPanic", seed, err)
		}
		faultinject.Deactivate()
	}
}

// TestFaultInjectionCancelStress sweeps cancel-at-checkpoint-N plans: a
// fired cancellation must always surface as ErrBuildCanceled.
func TestFaultInjectionCancelStress(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 400, M: 1200, Seed: 7})
	sites := []string{"build/2hop", "build/pll", "build/tol"}
	builds := map[string]Kind{"build/2hop": kindTwoHop, "build/pll": KindPLL, "build/tol": KindTOL}
	for seed := int64(0); seed < 24; seed++ {
		plan := faultinject.DerivePlan(seed, sites, []faultinject.Kind{faultinject.Cancel}, 200)
		ctx, cancel := context.WithCancel(context.Background())
		plan.Cancel = cancel
		faultinject.Activate(plan)
		ix, err := BuildCtx(ctx, builds[plan.Site], g, Options{})
		faultinject.Deactivate()
		cancel()
		if err == nil && ix == nil {
			t.Fatalf("seed %d: nil index with nil error", seed)
		}
		if err != nil && !errors.Is(err, ErrBuildCanceled) {
			t.Fatalf("seed %d: err = %v, want ErrBuildCanceled", seed, err)
		}
		if plan.Fired() && err == nil {
			t.Fatalf("seed %d site %s: cancel fired but the build completed", seed, plan.Site)
		}
	}
}

// TestFaultInjectionReadError: an injected I/O-layer error surfaces as an
// *faultinject.Injected error from ReadGraph, proving the error path is
// plumbed end to end.
func TestFaultInjectionReadError(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{Site: "graph/read", Kind: faultinject.Error})
	defer faultinject.Deactivate()
	_, err := ReadGraph(strings.NewReader("0 1\n"))
	var inj *faultinject.Injected
	if !errors.As(err, &inj) || inj.Site != "graph/read" {
		t.Fatalf("ReadGraph err = %v, want injected graph/read error", err)
	}
	faultinject.Deactivate()
	if _, err := ReadGraph(strings.NewReader("0 1\n")); err != nil {
		t.Fatalf("disarmed ReadGraph err = %v", err)
	}
}

// TestQueryCtxCancel: an already-canceled context returns its error from
// the query entry points and counts toward the canceled metric.
func TestQueryCtxCancel(t *testing.T) {
	db, err := NewDB(Fig1Labeled(), DBConfig{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ReachCtx(ctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("ReachCtx err = %v, want context.Canceled", err)
	}
	if _, err := db.QueryCtx(ctx, 0, 1, "(friendOf)*"); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryCtx err = %v, want context.Canceled", err)
	}
	snap, _ := db.MetricsSnapshot()
	if snap.Canceled < 2 {
		t.Errorf("canceled = %d, want >= 2", snap.Canceled)
	}
	// A live context behaves exactly like the context-free calls.
	if ok, err := db.ReachCtx(context.Background(), 0, 0); err != nil || !ok {
		t.Errorf("live ReachCtx = %v, %v", ok, err)
	}
}

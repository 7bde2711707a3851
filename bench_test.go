// Benchmarks regenerating the paper's evaluation artifacts as Go
// benchmarks — one family per table/figure/experiment (see EXPERIMENTS.md
// for the mapping and cmd/reachbench for the formatted-table variant).
//
//	go test -bench=. -benchmem
package reach_test

import (
	"context"
	"io"
	"slices"
	"sync"
	"testing"

	reach "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/labelset"
	"repro/internal/obs"
	"repro/internal/survey"
	"repro/internal/tc"
	"repro/internal/traversal"
)

// Shared workloads, built once.
var (
	onceDAG   sync.Once
	benchDAG  *reach.Graph
	benchQs   []gen.Query
	benchNegQ []gen.Query

	onceLCR    sync.Once
	benchLCRG  *reach.Graph
	benchLCRQs []gen.LCRQuery
)

func dagWorkload() (*reach.Graph, []gen.Query, []gen.Query) {
	onceDAG.Do(func() {
		benchDAG = gen.RandomDAG(gen.Config{N: 50000, M: 200000, Seed: 1})
		benchQs = gen.Queries(benchDAG, 2000, 2)
		benchNegQ = gen.QueriesWithRatio(benchDAG, 2000, 0.1, 3)
	})
	return benchDAG, benchQs, benchNegQ
}

func lcrWorkload() (*reach.Graph, []gen.LCRQuery) {
	onceLCR.Do(func() {
		benchLCRG = gen.Zipf(gen.ErdosRenyi(gen.Config{N: 3000, M: 12000, Seed: 4}), 8, 0.8, 5)
		benchLCRQs = gen.LCRQueries(benchLCRG, 500, 6)
	})
	return benchLCRG, benchLCRQs
}

// --- Table 1: plain indexes — build and query ------------------------

func benchBuild(b *testing.B, k reach.Kind, opt reach.Options) {
	g, _, _ := dagWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reach.Build(k, g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// ixCache memoizes built indexes across the benchmark runner's b.N
// escalations (each escalation re-enters the Benchmark function; heavy
// builds like Path-Tree's quadratic matrix must not repeat).
var ixCache sync.Map

func cachedIndex(b *testing.B, k reach.Kind, opt reach.Options) reach.Index {
	key := string(k)
	if v, ok := ixCache.Load(key); ok {
		return v.(reach.Index)
	}
	g, _, _ := dagWorkload()
	ix, err := reach.Build(k, g, opt)
	if err != nil {
		b.Fatal(err)
	}
	ixCache.Store(key, ix)
	return ix
}

func benchQuery(b *testing.B, k reach.Kind, opt reach.Options) {
	_, qs, _ := dagWorkload()
	ix := cachedIndex(b, k, opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if ix.Reach(q.S, q.T) != q.Want {
			b.Fatalf("%s: wrong answer", ix.Name())
		}
	}
}

func BenchmarkTable1_GRAIL_Build(b *testing.B) { benchBuild(b, reach.KindGRAIL, reach.Options{K: 3}) }
func BenchmarkTable1_GRAIL_Query(b *testing.B) { benchQuery(b, reach.KindGRAIL, reach.Options{K: 3}) }
func BenchmarkTable1_Ferrari_Build(b *testing.B) {
	benchBuild(b, reach.KindFerrari, reach.Options{K: 3})
}
func BenchmarkTable1_Ferrari_Query(b *testing.B) {
	benchQuery(b, reach.KindFerrari, reach.Options{K: 3})
}
func BenchmarkTable1_BFL_Build(b *testing.B)    { benchBuild(b, reach.KindBFL, reach.Options{Bits: 256}) }
func BenchmarkTable1_BFL_Query(b *testing.B)    { benchQuery(b, reach.KindBFL, reach.Options{Bits: 256}) }
func BenchmarkTable1_IP_Build(b *testing.B)     { benchBuild(b, reach.KindIP, reach.Options{K: 8}) }
func BenchmarkTable1_IP_Query(b *testing.B)     { benchQuery(b, reach.KindIP, reach.Options{K: 8}) }
func BenchmarkTable1_PLL_Build(b *testing.B)    { benchBuild(b, reach.KindPLL, reach.Options{}) }
func BenchmarkTable1_PLL_Query(b *testing.B)    { benchQuery(b, reach.KindPLL, reach.Options{}) }
func BenchmarkTable1_TFL_Query(b *testing.B)    { benchQuery(b, survey.KindTFL, reach.Options{}) }
func BenchmarkTable1_TOL_Query(b *testing.B)    { benchQuery(b, reach.KindTOL, reach.Options{}) }
func BenchmarkTable1_PReaCH_Query(b *testing.B) { benchQuery(b, reach.KindPReaCH, reach.Options{}) }
func BenchmarkTable1_Feline_Query(b *testing.B) { benchQuery(b, reach.KindFeline, reach.Options{}) }
func BenchmarkTable1_OReach_Query(b *testing.B) {
	benchQuery(b, survey.KindOReach, reach.Options{K: 16})
}
func BenchmarkTable1_PathTree_Query(b *testing.B) {
	benchQuery(b, reach.KindPathTree, reach.Options{})
}
func BenchmarkTable1_DBL_Query(b *testing.B) {
	benchQuery(b, survey.KindDBL, reach.Options{K: 32, Bits: 256})
}

// Baseline row of Table 1's discussion: online traversal.
func BenchmarkTable1_BFS_Query(b *testing.B) {
	g, qs, _ := dagWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if traversal.BFS(g, q.S, q.T) != q.Want {
			b.Fatal("BFS wrong")
		}
	}
}

func BenchmarkTable1_BiBFS_Query(b *testing.B) {
	g, qs, _ := dagWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if traversal.BiBFS(g, q.S, q.T) != q.Want {
			b.Fatal("BiBFS wrong")
		}
	}
}

// --- Table 2: LCR/RLC indexes ----------------------------------------

func benchLCRBuild(b *testing.B, k reach.LCRKind, opt reach.Options) {
	g, _ := lcrWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reach.BuildLCR(k, g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func cachedLCRIndex(b *testing.B, key string, build func() (reach.LCRIndex, error)) reach.LCRIndex {
	if v, ok := ixCache.Load("lcr/" + key); ok {
		return v.(reach.LCRIndex)
	}
	ix, err := build()
	if err != nil {
		b.Fatal(err)
	}
	ixCache.Store("lcr/"+key, ix)
	return ix
}

func benchLCRQuery(b *testing.B, k reach.LCRKind, opt reach.Options) {
	g, qs := lcrWorkload()
	ix := cachedLCRIndex(b, string(k), func() (reach.LCRIndex, error) {
		return reach.BuildLCR(k, g, opt)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		got := q.S == q.T || ix.ReachLC(q.S, q.T, labelset.Set(q.Allowed))
		if got != (q.Want || q.S == q.T) {
			b.Fatalf("%s: wrong answer", ix.Name())
		}
	}
}

func BenchmarkTable2_P2H_Build(b *testing.B) { benchLCRBuild(b, reach.LCRP2H, reach.Options{}) }
func BenchmarkTable2_P2H_Query(b *testing.B) { benchLCRQuery(b, reach.LCRP2H, reach.Options{}) }
func BenchmarkTable2_Landmark_Build(b *testing.B) {
	benchLCRBuild(b, reach.LCRLandmark, reach.Options{K: 32})
}
func BenchmarkTable2_Landmark_Query(b *testing.B) {
	benchLCRQuery(b, reach.LCRLandmark, reach.Options{K: 32})
}
func BenchmarkTable2_DLCR_Query(b *testing.B) { benchLCRQuery(b, reach.LCRDLCR, reach.Options{}) }

// The GTC/tree-based Table 2 rows run on a smaller workload: the full GTC
// is quadratic in n and the Jin-Tree link closure quadratic in the
// non-tree edge count — their published scaling limits (see E5/DESIGN.md).
func benchLCRQuerySmall(b *testing.B, k reach.LCRKind) {
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: 300, M: 900, Seed: 14}), 6, 0.8, 15)
	qs := gen.LCRQueries(g, 300, 16)
	ix := cachedLCRIndex(b, "small/"+string(k), func() (reach.LCRIndex, error) {
		return reach.BuildLCR(k, g, reach.Options{})
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		got := q.S == q.T || ix.ReachLC(q.S, q.T, labelset.Set(q.Allowed))
		if got != (q.Want || q.S == q.T) {
			b.Fatalf("%s: wrong answer", ix.Name())
		}
	}
}

func BenchmarkTable2_ZouGTC_Query(b *testing.B)  { benchLCRQuerySmall(b, reach.LCRZouGTC) }
func BenchmarkTable2_JinTree_Query(b *testing.B) { benchLCRQuerySmall(b, reach.LCRJinTree) }
func BenchmarkTable2_Decomp_Query(b *testing.B)  { benchLCRQuerySmall(b, reach.LCRDecomp) }

func BenchmarkTable2_LCRBFS_Query(b *testing.B) {
	g, qs := lcrWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if traversal.LabelConstrainedBFS(g, q.S, q.T, q.Allowed) != q.Want {
			b.Fatal("LCR-BFS wrong")
		}
	}
}

func BenchmarkTable2_RLC_Query(b *testing.B) {
	g, _ := lcrWorkload()
	ix, err := reach.BuildRLC(g, reach.Options{MaxSeq: 1})
	if err != nil {
		b.Fatal(err)
	}
	seq := []reach.Label{0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.ReachRLC(reach.V(i%g.N()), reach.V((i*7)%g.N()), seq)
	}
}

// --- Observability overhead: instrumented vs raw ----------------------
//
// The instrumentation contract (OBSERVABILITY.md) is <=10% overhead on
// Reach with metrics enabled and ~0 when disabled; compare these against
// the matching BenchmarkTable1_*_Query rows.

func benchQueryInstrumented(b *testing.B, k reach.Kind, opt reach.Options, m *obs.IndexMetrics) {
	g, qs, _ := dagWorkload()
	ix := core.Instrument(cachedIndex(b, k, opt), g, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if ix.Reach(q.S, q.T) != q.Want {
			b.Fatalf("%s: wrong answer", ix.Name())
		}
	}
}

func BenchmarkObs_BFL_QueryInstrumented(b *testing.B) {
	benchQueryInstrumented(b, reach.KindBFL, reach.Options{Bits: 256}, &obs.IndexMetrics{})
}

func BenchmarkObs_GRAIL_QueryInstrumented(b *testing.B) {
	benchQueryInstrumented(b, reach.KindGRAIL, reach.Options{K: 3}, &obs.IndexMetrics{})
}

// Nil metrics exercise the disabled fast path: one pointer comparison.
func BenchmarkObs_BFL_QueryInstrumentDisabled(b *testing.B) {
	benchQueryInstrumented(b, reach.KindBFL, reach.Options{Bits: 256}, nil)
}

// --- E4: negative-heavy mixes (§5) ------------------------------------

func benchNegHeavy(b *testing.B, k reach.Kind, opt reach.Options) {
	_, _, neg := dagWorkload()
	ix := cachedIndex(b, k, opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := neg[i%len(neg)]
		if ix.Reach(q.S, q.T) != q.Want {
			b.Fatal("wrong")
		}
	}
}

func BenchmarkE4_NegHeavy_GRAIL(b *testing.B) { benchNegHeavy(b, reach.KindGRAIL, reach.Options{K: 3}) }
func BenchmarkE4_NegHeavy_BFL(b *testing.B) {
	benchNegHeavy(b, reach.KindBFL, reach.Options{Bits: 256})
}
func BenchmarkE4_NegHeavy_IP(b *testing.B) { benchNegHeavy(b, reach.KindIP, reach.Options{K: 8}) }
func BenchmarkE4_NegHeavy_BFS(b *testing.B) {
	g, _, neg := dagWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := neg[i%len(neg)]
		traversal.BFS(g, q.S, q.T)
	}
}

// --- Fallback cost at scale ---------------------------------------------
//
// BenchmarkFallbackReach is DB.Reach with the default index (BFL) over a
// pool of known-positive pairs — the queries the Bloom labels leave to the
// guided DFS — at n=10⁴ and n=10⁶, same edge density. expanded/op is the
// mean number of vertices that DFS expands: a handful at either size, so
// ns/op should follow it, not n (the arena is emptied by what a query
// touched; see internal/scratch).
func BenchmarkFallbackReach(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"n=1e4", 10_000}, {"n=1e6", 1_000_000}} {
		b.Run(size.name, func(b *testing.B) {
			g := gen.RandomDAG(gen.Config{N: size.n, M: 4 * size.n, Seed: 41})
			// A sink source contributes negatives even at ratio 1: drop them.
			pool := slices.DeleteFunc(gen.QueriesWithRatio(g, 4096, 1.0, 42),
				func(q gen.Query) bool { return !q.Want })
			db, err := reach.NewDB(g, reach.DBConfig{})
			if err != nil {
				b.Fatal(err)
			}
			ix, _ := db.PlainIndex(reach.KindBFL)
			expanded := 0
			for _, q := range pool {
				_, k, _ := ix.(core.ReachCounter).ReachCounted(q.S, q.T)
				expanded += k
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := pool[i%len(pool)]
				if ok, err := db.Reach(q.S, q.T); err != nil || !ok {
					b.Fatalf("Reach(%d,%d) = %v, %v; want true", q.S, q.T, ok, err)
				}
			}
			b.ReportMetric(float64(expanded)/float64(len(pool)), "expanded/op")
		})
	}
}

// --- E8: dynamic updates ----------------------------------------------

func benchInsert(b *testing.B, k reach.Kind) {
	g := gen.RandomDAG(gen.Config{N: 5000, M: 15000, Seed: 7})
	script := gen.UpdateScript(g, 10000, true, 8)
	var inserts []gen.UpdateOp
	for _, op := range script {
		if op.Insert {
			inserts = append(inserts, op)
		}
	}
	ix, err := survey.BuildDynamic(k, g, reach.Options{K: 2, Bits: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := inserts[i%len(inserts)]
		if err := ix.InsertEdge(op.Edge.From, op.Edge.To); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_Insert_TOL(b *testing.B)    { benchInsert(b, reach.KindTOL) }
func BenchmarkE8_Insert_DAGGER(b *testing.B) { benchInsert(b, survey.KindDAGGER) }
func BenchmarkE8_Insert_DBL(b *testing.B)    { benchInsert(b, survey.KindDBL) }

// --- E2: label size vs TC (reported via metrics) -----------------------

func BenchmarkE2_TCClosure_Build(b *testing.B) {
	g := gen.RandomDAG(gen.Config{N: 5000, M: 20000, Seed: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tc.NewClosure(g)
		b.ReportMetric(float64(c.Pairs()), "pairs")
	}
}

func BenchmarkE2_PLL_Entries(b *testing.B) {
	g := gen.RandomDAG(gen.Config{N: 5000, M: 20000, Seed: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, _ := reach.Build(reach.KindPLL, g, reach.Options{})
		b.ReportMetric(float64(ix.Stats().Entries), "entries")
	}
}

// --- E7: RLC vs product search ----------------------------------------

func BenchmarkE7_RLC_Indexed(b *testing.B) {
	g, _ := lcrWorkload()
	ix, _ := reach.BuildRLC(g, reach.Options{MaxSeq: 2})
	seq := []reach.Label{0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.ReachRLC(reach.V(i%g.N()), reach.V((i*13)%g.N()), seq)
	}
}

func BenchmarkE7_RLC_ProductBFS(b *testing.B) {
	g, _ := lcrWorkload()
	seq := []reach.Label{0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.RLCReach(g, reach.V(i%g.N()), reach.V((i*13)%g.N()), seq, false)
	}
}

// --- E11: the §5 open-challenge prototypes ------------------------------

func BenchmarkE11_RPQIndex_Query(b *testing.B) {
	g, _ := lcrWorkload()
	ix, err := reach.BuildConstraint(g, "(l0.l1|l2)*")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Reach(reach.V(i%g.N()), reach.V((i*19)%g.N()))
	}
}

func BenchmarkE11_LCRBloom_NegativeLookups(b *testing.B) {
	g, qs := lcrWorkload()
	ix, err := reach.BuildLCR(reach.LCRBloom, g, reach.Options{Bits: 256})
	if err != nil {
		b.Fatal(err)
	}
	type prober interface {
		TryReachLC(s, t reach.V, allowed labelset.Set) (bool, bool)
	}
	p := ix.(prober)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		p.TryReachLC(q.S, q.T, labelset.Set(q.Allowed))
	}
}

func BenchmarkE11_BatchReach(b *testing.B) {
	g, qs, _ := dagWorkload()
	ix, _ := reach.Build(reach.KindBFL, g, reach.Options{Bits: 256})
	pairs := make([]reach.Pair, len(qs))
	for i, q := range qs {
		pairs[i] = reach.Pair{S: q.S, T: q.T}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reach.BatchReach(ix, g, pairs, 0)
	}
}

// --- E13: parallel construction and pooled query scratch ----------------
//
// The workers=1 vs workers=4 pairs measure the internal/par fan-out (on a
// multi-core host 4 workers should approach 4x on the embarrassingly
// parallel builds; with GOMAXPROCS=1 the pair instead bounds the pool's
// overhead). The Pooled* benchmarks certify the scratch arena: steady-state
// traversals report 0 allocs/op.

func benchBuildWorkers(b *testing.B, k reach.Kind, opt reach.Options, workers int) {
	g, _, _ := dagWorkload()
	opt.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reach.Build(k, g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13_GRAIL_Build_W1(b *testing.B) {
	benchBuildWorkers(b, reach.KindGRAIL, reach.Options{K: 3}, 1)
}
func BenchmarkE13_GRAIL_Build_W4(b *testing.B) {
	benchBuildWorkers(b, reach.KindGRAIL, reach.Options{K: 3}, 4)
}
func BenchmarkE13_IP_Build_W1(b *testing.B) {
	benchBuildWorkers(b, reach.KindIP, reach.Options{K: 8}, 1)
}
func BenchmarkE13_IP_Build_W4(b *testing.B) {
	benchBuildWorkers(b, reach.KindIP, reach.Options{K: 8}, 4)
}
func BenchmarkE13_OReach_Build_W1(b *testing.B) {
	benchBuildWorkers(b, survey.KindOReach, reach.Options{K: 16}, 1)
}
func BenchmarkE13_OReach_Build_W4(b *testing.B) {
	benchBuildWorkers(b, survey.KindOReach, reach.Options{K: 16}, 4)
}
func BenchmarkE13_BFL_Build_W1(b *testing.B) {
	benchBuildWorkers(b, reach.KindBFL, reach.Options{Bits: 256}, 1)
}
func BenchmarkE13_BFL_Build_W4(b *testing.B) {
	benchBuildWorkers(b, reach.KindBFL, reach.Options{Bits: 256}, 4)
}

func benchClosureWorkers(b *testing.B, workers int) {
	g := gen.RandomDAG(gen.Config{N: 20000, M: 80000, Seed: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.NewClosureN(g, workers)
	}
}

func BenchmarkE13_TCClosure_Build_W1(b *testing.B) { benchClosureWorkers(b, 1) }
func BenchmarkE13_TCClosure_Build_W4(b *testing.B) { benchClosureWorkers(b, 4) }

// BenchmarkE13_PooledBFS certifies the zero-allocation contract of the
// scratch arena on the online BFS baseline: after warmup every query
// reuses a pooled visited bitset and queue (expect 0 allocs/op).
func BenchmarkE13_PooledBFS(b *testing.B) {
	g, qs, _ := dagWorkload()
	traversal.BFS(g, qs[0].S, qs[0].T) // warm the pool before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if traversal.BFS(g, q.S, q.T) != q.Want {
			b.Fatal("BFS wrong")
		}
	}
}

// BenchmarkE13_PooledGuidedFallback measures a partial index whose
// negative queries exhaust the guided-DFS fallback — the allocation-heavy
// path before the pool (one bitset.New(n) per undecided query).
func BenchmarkE13_PooledGuidedFallback(b *testing.B) {
	_, _, neg := dagWorkload()
	ix := cachedIndex(b, reach.KindGRAIL, reach.Options{K: 3})
	ix.Reach(neg[0].S, neg[0].T)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := neg[i%len(neg)]
		if ix.Reach(q.S, q.T) != q.Want {
			b.Fatal("wrong")
		}
	}
}

// --- Figure 1 sanity as a benchmark (router overhead) -------------------

func BenchmarkFig1_RouterQuery(b *testing.B) {
	db, err := reach.NewDB(reach.Fig1Labeled(), reach.DBConfig{})
	if err != nil {
		b.Fatal(err)
	}
	a, _ := db.Graph().VertexByName("A")
	g, _ := db.Graph().VertexByName("G")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := db.Query(a, g, "(friendOf|follows)*"); ok {
			b.Fatal("wrong")
		}
	}
}

// --- E14: query-path acceleration ----------------------------------------
//
// The BatchReach pair compares the index-free batch path's bit-parallel
// kernel (64 sources per sweep) against answering the same pairs with one
// early-exit BFS each. The kernel's win scales with how much the sources'
// reachable sets overlap, so the workload is a dense DAG (10 edges/vertex,
// sharing ratio ~17); see BenchmarkMultiSourceReach in internal/traversal
// for the sharing-ratio sweep. The DB pair measures the sharded result
// cache on a hot-pair workload (every query repeats a small working set).

var (
	onceE14  sync.Once
	e14DAG   *reach.Graph
	e14Pairs []reach.Pair
)

func e14Workload() (*reach.Graph, []reach.Pair) {
	onceE14.Do(func() {
		e14DAG = gen.RandomDAG(gen.Config{N: 50000, M: 500000, Seed: 8})
		qs := gen.Queries(e14DAG, 2048, 14)
		e14Pairs = make([]reach.Pair, len(qs))
		for i, q := range qs {
			e14Pairs[i] = reach.Pair{S: q.S, T: q.T}
		}
	})
	return e14DAG, e14Pairs
}

func BenchmarkE14_BatchReach_BitParallel(b *testing.B) {
	g, pairs := e14Workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reach.BatchReach(nil, g, pairs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14_BatchReach_PerPairBFS(b *testing.B) {
	g, pairs := e14Workload()
	out := make([]bool, len(pairs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range pairs {
			out[j] = traversal.BFS(g, p.S, p.T)
		}
	}
	_ = out
}

func benchDBHotPairs(b *testing.B, cacheSize int) {
	g, qs, _ := dagWorkload()
	db, err := reach.NewDB(g, reach.DBConfig{CacheSize: cacheSize})
	if err != nil {
		b.Fatal(err)
	}
	hot := qs[:64]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := hot[i%len(hot)]
		if _, err := db.Reach(q.S, q.T); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14_DBHotPairs_Uncached(b *testing.B) { benchDBHotPairs(b, 0) }
func BenchmarkE14_DBHotPairs_Cached(b *testing.B)   { benchDBHotPairs(b, 4096) }

// --- Tracing overhead (OBSERVABILITY.md, "Tracing") ---------------------

// benchTraceDB builds a DB over the shared DAG workload with no cache,
// metrics or capture; queries run through ReachCtx like server traffic.
func benchTraceDB(b *testing.B) (*reach.DB, []gen.Query) {
	g, qs, _ := dagWorkload()
	db, err := reach.NewDB(g, reach.DBConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return db, qs
}

// The context carries no trace (a caller outside the HTTP tier, or a
// server without a Tracer): pays one context lookup, records nothing.
func BenchmarkTrace_ReachCtx_NoTrace(b *testing.B) {
	db, qs := benchTraceDB(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if got, _ := db.ReachCtx(ctx, q.S, q.T); got != q.Want {
			b.Fatal("wrong answer")
		}
	}
}

// Fully traced: pooled Trace per query, phase Begin/End around the index
// probe, ring insertion at Finish — the whole per-request pipeline.
func BenchmarkTrace_ReachCtx_Traced(b *testing.B) {
	db, qs := benchTraceDB(b)
	tracer := obs.NewTracer(128, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		tr := tracer.Start("")
		ctx := obs.WithTrace(context.Background(), tr)
		got, _ := db.ReachCtx(ctx, q.S, q.T)
		tracer.Finish(tr)
		if got != q.Want {
			b.Fatal("wrong answer")
		}
	}
}

// Workload capture on the same path: one record append per query.
func BenchmarkTrace_ReachCtx_Recorded(b *testing.B) {
	g, qs, _ := dagWorkload()
	rec := reach.NewWorkloadRecorder(io.Discard)
	db, err := reach.NewDB(g, reach.DBConfig{RecordWorkload: rec})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if got, _ := db.ReachCtx(ctx, q.S, q.T); got != q.Want {
			b.Fatal("wrong answer")
		}
	}
	b.StopTimer()
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
}

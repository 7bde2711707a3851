package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	reach "repro"
	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/survey"
	"repro/internal/tc"
	"repro/internal/traversal"
)

// E13 — the §5 "parallel computation of indexes" direction, as implemented
// by the internal/par substrate and the pooled query scratch:
//
//  1. Build-time scaling: each parallelized builder is constructed at
//     worker counts 1, 2, 4 and 8 over the same graph and seed. The
//     speedup column is W1/Wk wall time. On a multi-core host the
//     embarrassingly parallel builds (GRAIL, O'Reach, exact TC) approach
//     the core count; with GOMAXPROCS=1 every pool collapses onto one
//     thread and the column instead bounds the substrate's overhead — the
//     header records GOMAXPROCS so the two readings are not confused.
//     Answers are identical at every worker count (the determinism
//     guarantee of reach.Options.Workers, tested under -race).
//  2. Query-scratch pooling: heap allocations per BFS query, measured by
//     runtime.MemStats deltas, for the pooled traversal versus an
//     unpooled replica that allocates its visited bitset and queue per
//     query the way every traversal here did before the scratch arena.
func E13(w io.Writer, sc Scale, seed int64) {
	n := sc.n(20000)
	g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: seed})

	t := NewTable(fmt.Sprintf("E13 — parallel index construction (§5), GOMAXPROCS=%d",
		runtime.GOMAXPROCS(0)),
		"index", "W1 build", "W2", "W4", "W8", "speedup@4")
	builders := []struct {
		name  string
		build func(workers int)
	}{
		{"GRAIL", func(ws int) {
			mustBuild(reach.KindGRAIL, g, reach.Options{K: 3, Seed: seed, Workers: ws})
		}},
		{"FERRARI", func(ws int) {
			mustBuild(reach.KindFerrari, g, reach.Options{K: 3, Workers: ws})
		}},
		{"IP", func(ws int) {
			mustBuild(reach.KindIP, g, reach.Options{K: 8, Seed: seed, Workers: ws})
		}},
		{"O'Reach", func(ws int) {
			mustBuild(survey.KindOReach, g, reach.Options{K: 16, Workers: ws})
		}},
		{"BFL", func(ws int) {
			mustBuild(reach.KindBFL, g, reach.Options{Bits: 256, Seed: seed, Workers: ws})
		}},
		{"DBL", func(ws int) {
			mustBuild(survey.KindDBL, g, reach.Options{K: 16, Bits: 256, Seed: seed, Workers: ws})
		}},
		{"exact TC", func(ws int) { tc.NewClosureN(g, ws) }},
	}
	if n > 50000 {
		// The closure matrix is n^2 bits; past ~300 MB it stops being an
		// experiment about parallelism and becomes one about swap.
		builders = builders[:len(builders)-1]
		fmt.Fprintf(w, "E13: skipping exact TC at n=%d (quadratic closure matrix)\n", n)
	}
	for _, b := range builders {
		var dur [4]time.Duration
		for i, ws := range []int{1, 2, 4, 8} {
			start := time.Now()
			b.build(ws)
			dur[i] = time.Since(start)
		}
		t.Row(b.name, dur[0].Round(time.Microsecond), dur[1].Round(time.Microsecond),
			dur[2].Round(time.Microsecond), dur[3].Round(time.Microsecond),
			ratio(dur[0], dur[2]))
	}
	t.Write(w)

	qs := gen.Queries(g, 2000, seed+1)
	at := NewTable("E13 — per-query heap allocations: pooled scratch vs per-query bitsets",
		"traversal", "queries", "allocs/query", "bytes/query")
	pa, pb := measureAllocs(func() {
		for _, q := range qs {
			traversal.BFS(g, q.S, q.T)
		}
	})
	at.Row("BFS (pooled)", len(qs), perQuery(pa, len(qs)), perQuery(pb, len(qs)))
	ua, ub := measureAllocs(func() {
		for _, q := range qs {
			unpooledBFS(g, q.S, q.T)
		}
	})
	at.Row("BFS (unpooled)", len(qs), perQuery(ua, len(qs)), perQuery(ub, len(qs)))
	at.Write(w)
}

func mustBuild(k reach.Kind, g *reach.Graph, opt reach.Options) {
	if _, err := reach.Build(k, g, opt); err != nil {
		panic(err)
	}
}

// measureAllocs returns the (mallocs, bytes) f performed, by MemStats
// deltas. A warmup call populates the scratch pool so the pooled side is
// measured at steady state, matching a long-running query workload.
func measureAllocs(f func()) (mallocs, bytes uint64) {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

func perQuery(total uint64, queries int) string {
	return fmt.Sprintf("%.1f", float64(total)/float64(queries))
}

// unpooledBFS is the pre-pool traversal: one visited bitset and one queue
// allocation per query. Kept as the experiment's baseline.
func unpooledBFS(g *reach.Graph, s, t reach.V) bool {
	if s == t {
		return true
	}
	visited := bitset.New(g.N())
	visited.Set(int(s))
	queue := []reach.V{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Succ(v) {
			if w == t {
				return true
			}
			if !visited.Test(int(w)) {
				visited.Set(int(w))
				queue = append(queue, w)
			}
		}
	}
	return false
}

package experiments

import (
	"fmt"
	"io"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/traversal"
)

// E14 — query-path acceleration: the three caches/kernels this repository
// layers between a query and a traversal.
//
//  1. Batch kernel: the index-free BatchReach path answers 64 pairs per
//     bit-parallel sweep instead of one BFS per pair. The win is the
//     sharing ratio — how much the sources' reachable sets overlap — so
//     the workload is a dense DAG (10 edges/vertex, ratio ~17).
//  2. DB result cache: the sharded CLOCK cache on a hot-pair workload
//     (every query repeats a small working set), cached vs uncached,
//     plus the hit rate the cached run observed.
//  3. Condensation sharing: NewDB with several DAG-only plain kinds
//     condenses the input exactly once; the extra builds hit the
//     PreparedGraph memo.
func E14(w io.Writer, sc Scale, seed int64) {
	n := sc.n(20000)
	g := gen.RandomDAG(gen.Config{N: n, M: 10 * n, Seed: seed})
	qs := gen.Queries(g, 2048, seed+1)
	pairs := make([]reach.Pair, len(qs))
	for i, q := range qs {
		pairs[i] = reach.Pair{S: q.S, T: q.T}
	}

	t := NewTable(fmt.Sprintf("E14a — index-free batch: bit-parallel kernel vs per-pair BFS, n=%d m=%d", n, 10*n),
		"method", "pairs", "total", "per pair", "speedup")
	start := time.Now()
	if _, err := reach.BatchReach(nil, g, pairs, 1); err != nil {
		panic(err)
	}
	kernel := time.Since(start)
	start = time.Now()
	for _, p := range pairs {
		traversal.BFS(g, p.S, p.T)
	}
	seq := time.Since(start)
	t.Row("bit-parallel kernel", len(pairs), kernel.Round(time.Millisecond),
		(kernel / time.Duration(len(pairs))).Round(time.Microsecond), ratio(seq, kernel))
	t.Row("per-pair BFS", len(pairs), seq.Round(time.Millisecond),
		(seq / time.Duration(len(pairs))).Round(time.Microsecond), "1.0x")
	t.Write(w)

	hot := qs[:64]
	measure := func(cacheSize, rounds int) (time.Duration, *reach.DB) {
		db, err := reach.NewDB(g, reach.DBConfig{CacheSize: cacheSize})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for i := 0; i < rounds; i++ {
			for _, q := range hot {
				if _, err := db.Reach(q.S, q.T); err != nil {
					panic(err)
				}
			}
		}
		return time.Since(start), db
	}
	const rounds = 200
	uncached, _ := measure(0, rounds)
	cached, cdb := measure(4096, rounds)
	t2 := NewTable(fmt.Sprintf("E14b — DB result cache, hot-pair workload (%d pairs x %d rounds)", len(hot), rounds),
		"config", "per query", "speedup", "hit rate")
	queries := rounds * len(hot)
	snap, _ := cdb.CacheStats()
	t2.Row("cached (4096 entries)", (cached / time.Duration(queries)).Round(time.Nanosecond),
		ratio(uncached, cached), pct(int(snap.Hits), int(snap.Hits+snap.Misses)))
	t2.Row("uncached", (uncached / time.Duration(queries)).Round(time.Nanosecond), "1.0x", "-")
	t2.Write(w)

	prep := reach.Prepare(g)
	for _, kind := range []reach.Kind{reach.KindBFL, reach.KindFeline, reach.KindPReaCH, reach.KindGRAIL} {
		if _, err := reach.Build(kind, g, reach.Options{Bits: 256, K: 3, Seed: seed, Prepared: prep}); err != nil {
			panic(err)
		}
	}
	fmt.Fprintf(w, "E14c — condensation sharing: 4 DAG-only kinds built over one Prepare(g), "+
		"condensed once, memo hits = %d\n\n", prep.Hits())
}

package reach_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	reach "repro"
	"repro/internal/gen"
)

// BenchmarkCacheStreams is the measurement behind the result cache's
// plain-route decision (EXPERIMENTS.md E35): one goroutine calls DB.Reach
// over a 2·10⁶-pair stream on a RandomDAG (m = 4n) at n = 10⁵ and 10⁶,
// with DBConfig{} and with CacheSize 65 536 and 2²⁰. Four streams: uniform
// pairs; 90/10 (90 % uniform, 10 % known positives from 1–8-step walks);
// and Zipf(1.1) draws over 50 000 pairs taken from each of those two.
// Every (config, stream) pass gets a fresh DB over one shared index, so
// each pass fills its own cache. Rounds alternate the config order; the
// table prints each cell's median and range in ns per call. Every config
// must count the same positives on a stream, or the run fails.
//
//	go test -run '^$' -bench CacheStreams -benchtime 1x -timeout 30m .
func BenchmarkCacheStreams(b *testing.B) {
	const (
		streamLen = 2_000_000
		hotPairs  = 50_000
		rounds    = 5
	)
	configs := []struct {
		name string
		size int
	}{{"DBConfig{}", 0}, {"CacheSize 65536", 1 << 16}, {"CacheSize 2^20", 1 << 20}}
	for i := 0; i < b.N; i++ {
		for _, n := range []int{100_000, 1_000_000} {
			g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: 1})
			ix, err := reach.Build(reach.KindBFL, g, reach.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			uniform := uniformPairs(rng, n, streamLen)
			mixed := mixedPairs(rng, g, streamLen)
			streams := []struct {
				name  string
				pairs []reach.Pair
			}{
				{"uniform", uniform},
				{"90/10", mixed},
				{"Zipf uniform", zipfOver(rng, uniform[:hotPairs], streamLen)},
				{"Zipf 90/10", zipfOver(rng, mixed[:hotPairs], streamLen)},
			}
			ns := make([][][]float64, len(streams)) // [stream][config][round]
			for si, st := range streams {
				ns[si] = make([][]float64, len(configs))
				positives := -1
				for r := 0; r < rounds; r++ {
					for j := range configs {
						ci := j
						if r%2 == 1 {
							ci = len(configs) - 1 - j
						}
						db, err := reach.NewDB(g, reach.DBConfig{PlainIndex: ix, CacheSize: configs[ci].size})
						if err != nil {
							b.Fatal(err)
						}
						d, pos := reachPass(b, db, st.pairs)
						if positives >= 0 && pos != positives {
							b.Fatalf("n=%d %s %s: %d positives, another config counted %d", n, st.name, configs[ci].name, pos, positives)
						}
						positives = pos
						ns[si][ci] = append(ns[si][ci], float64(d.Nanoseconds())/float64(len(st.pairs)))
					}
				}
			}
			fmt.Printf("\nn = %d, m = %d, %d calls per pass, %d alternating rounds (median [min–max] ns per DB.Reach)\n", g.N(), g.M(), streamLen, rounds)
			fmt.Printf("%-14s", "stream")
			for _, c := range configs {
				fmt.Printf("  %-22s", c.name)
			}
			fmt.Println()
			for si, st := range streams {
				fmt.Printf("%-14s", st.name)
				for ci := range configs {
					v := slices.Clone(ns[si][ci])
					slices.Sort(v)
					fmt.Printf("  %-22s", fmt.Sprintf("%.0f [%.0f–%.0f]", v[len(v)/2], v[0], v[len(v)-1]))
				}
				fmt.Println()
			}
		}
	}
}

// reachPass asks db every pair once and returns the time taken and the
// number of positive answers.
func reachPass(b *testing.B, db *reach.DB, pairs []reach.Pair) (time.Duration, int) {
	pos := 0
	start := time.Now()
	for _, p := range pairs {
		ok, err := db.Reach(p.S, p.T)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			pos++
		}
	}
	return time.Since(start), pos
}

func uniformPairs(rng *rand.Rand, n, cnt int) []reach.Pair {
	ps := make([]reach.Pair, cnt)
	for i := range ps {
		ps[i] = reach.Pair{S: reach.V(rng.Intn(n)), T: reach.V(rng.Intn(n))}
	}
	return ps
}

// mixedPairs is 90 % uniform pairs and 10 % known positives: t is the end
// of a 1–8-step random walk from s (shorter where the walk meets a sink).
func mixedPairs(rng *rand.Rand, g *reach.Graph, cnt int) []reach.Pair {
	ps := uniformPairs(rng, g.N(), cnt)
	for i := 0; i < cnt; i += 10 {
		for {
			s := reach.V(rng.Intn(g.N()))
			t := s
			for steps := 1 + rng.Intn(8); steps > 0; steps-- {
				succ := g.Succ(t)
				if len(succ) == 0 {
					break
				}
				t = succ[rng.Intn(len(succ))]
			}
			if t != s {
				ps[i] = reach.Pair{S: s, T: t}
				break
			}
		}
	}
	return ps
}

// zipfOver draws cnt pairs from hot with Zipf(1.1) ranks.
func zipfOver(rng *rand.Rand, hot []reach.Pair, cnt int) []reach.Pair {
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(hot)-1))
	ps := make([]reach.Pair, cnt)
	for i := range ps {
		ps[i] = hot[z.Uint64()]
	}
	return ps
}

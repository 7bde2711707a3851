package bfl

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scc"
)

// hashBits is the bit map BFL used before postorder groups, kept as the
// oracle: a multiply-xorshift mix x of the id, Lout's bit x mod 256 and
// Lin's (x >> 8) mod 224.
func hashBits(seed int64) func(graph.V) (out, in uint32) {
	mul := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	return func(v graph.V) (uint32, uint32) {
		x := (uint64(v) + 1) * mul
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 29
		return uint32(x % 256), uint32(x >> 8 % 224)
	}
}

// newRandomHash builds BFL as it was built before postorder groups.
func newRandomHash(c *scc.Condensation, opts Options) *Index {
	return newWith(c, opts, hashBits(opts.Seed))
}

// onePartitionBits is the bit map BFL used before Lin took groups of its
// own, kept as the oracle: both filters' bits from one partition of the
// ids into count groups, Lout's bit the rotated group mod 256 and Lin's
// the same group mod 224.
func onePartitionBits(n, count int, seed int64) func(graph.V) (out, in uint32) {
	size := graph.V(max(1, (n+count-1)/count))
	rot := (uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d) >> 32
	return func(v graph.V) (uint32, uint32) {
		x := uint64(v/size) + rot
		return uint32(x % 256), uint32(x % 224)
	}
}

// newOnePartition builds BFL as it was built before Lin took groups of
// its own: both filters keyed by one partition into groups (4096)
// postorder groups.
func newOnePartition(c *scc.Condensation, opts Options) *Index {
	return newWith(c, opts, onePartitionBits(c.DAG.N(), groups, opts.Seed))
}

// oracleFixture is a snapshot written by reach.SaveIndex when BFL still
// hashed ids, of the condensation of fixtureGraph.
const oracleFixture = "testdata/v4-random-hash.snap"

// fixtureGraph is the graph oracleFixture was built over.
func fixtureGraph() *graph.Digraph {
	return gen.ErdosRenyi(gen.Config{N: 400, M: 600, Seed: 4001})
}

// onePartitionFixture is a snapshot written by reach.SaveIndex when both
// filters took their bits from one partition, of the condensation of
// onePartitionGraph.
const onePartitionFixture = "testdata/v4-one-partition.snap"

// onePartitionGraph is the graph onePartitionFixture was built over.
func onePartitionGraph() *graph.Digraph {
	return gen.RandomDAG(gen.Config{N: 500, M: 1500, Seed: 4201})
}

// checkFixture fails t unless oracle, built over g's condensation,
// writes path byte for byte and New writes other bytes: then the
// snapshot is the oracle's build, and loading it exercises a snapshot
// whose bits New would not set.
func checkFixture(t *testing.T, path string, g *graph.Digraph, oracle func(*scc.Condensation, Options) *Index) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := scc.Condense(g, 0)
	snap := func(ix *Index) []byte {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(snap(oracle(c, Options{})), want) {
		t.Fatalf("the oracle no longer writes %s", path)
	}
	if bytes.Equal(snap(New(c, Options{})), want) {
		t.Fatalf("New writes %s's bytes: the fixture tests nothing", path)
	}
}

// TestRandomHashOracleWritesFixture: the random-hash oracle writes
// oracleFixture byte for byte, and New writes other bytes.
func TestRandomHashOracleWritesFixture(t *testing.T) {
	checkFixture(t, oracleFixture, fixtureGraph(), newRandomHash)
}

// TestOnePartitionOracleWritesFixture: the one-partition oracle writes
// onePartitionFixture byte for byte, and New writes other bytes.
func TestOnePartitionOracleWritesFixture(t *testing.T) {
	checkFixture(t, onePartitionFixture, onePartitionGraph(), newOnePartition)
}

// uniformPairs returns cnt uniform vertex pairs of g in c's ids.
func uniformPairs(g *graph.Digraph, c *scc.Condensation, cnt int, seed int64) []core.Pair {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]core.Pair, cnt)
	for i := range ps {
		ps[i] = core.Pair{S: c.Comp[rng.Intn(g.N())], T: c.Comp[rng.Intn(g.N())]}
	}
	return ps
}

// fallbackCost answers ps through ReachCounted and returns the answers,
// the guided-DFS expansions summed over ps and how many were decided
// without one.
func fallbackCost(ix *Index, ps []core.Pair) (answers []bool, expanded, decided int) {
	answers = make([]bool, len(ps))
	for i, p := range ps {
		r, n, dec := ix.ReachCounted(p.S, p.T)
		answers[i] = r
		expanded += n
		if dec {
			decided++
		}
	}
	return answers, expanded, decided
}

// TestPostorderGroupsFallBackLess: on a 10⁵-vertex RandomDAG (m = 4n),
// filters keyed by postorder group send uniform pairs to the guided DFS
// for at most 0.8× the expansions the random hash costs, decide no fewer
// pairs, and answer every pair as the random-hash index does.
func TestPostorderGroupsFallBackLess(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 100_000, M: 400_000, Seed: 4002})
	c := scc.Condense(g, 0)
	ps := uniformPairs(g, c, 50_000, 4003)
	got, gotN, gotDec := fallbackCost(New(c, Options{}), ps)
	want, wantN, wantDec := fallbackCost(newRandomHash(c, Options{}), ps)
	for i := range ps {
		if got[i] != want[i] {
			t.Fatalf("pair (%d,%d): groups say %v, the random hash %v", ps[i].S, ps[i].T, got[i], want[i])
		}
	}
	t.Logf("%d uniform pairs: %d expansions, %d decided (random hash: %d, %d)", len(ps), gotN, gotDec, wantN, wantDec)
	if wantN == 0 {
		t.Fatal("the random hash expands nothing: the pairs test nothing")
	}
	if 5*gotN > 4*wantN {
		t.Errorf("postorder groups expand %d, more than 0.8× the random hash's %d", gotN, wantN)
	}
	if gotDec < wantDec {
		t.Errorf("postorder groups decide %d pairs, the random hash %d", gotDec, wantDec)
	}
}

// knownPositives returns cnt reachable pairs of g, in c's ids.
func knownPositives(g *graph.Digraph, c *scc.Condensation, cnt int, seed int64) []core.Pair {
	var ps []core.Pair
	for _, q := range gen.QueriesWithRatio(g, cnt, 1.0, seed) {
		ps = append(ps, core.Pair{S: c.Comp[q.S], T: c.Comp[q.T]})
	}
	return ps
}

// TestLinGroupsFallBackLess: on a 10⁵-vertex RandomDAG (m = 4n), Lin's
// own coarse groups send uniform pairs to the guided DFS for at most
// 0.8× the expansions the one-partition oracle costs and known positives
// for at most 0.95×, decide at most one point fewer of the uniform
// pairs, and answer every pair as the oracle does.
func TestLinGroupsFallBackLess(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 100_000, M: 400_000, Seed: 4202})
	c := scc.Condense(g, 0)
	ix, oracle := New(c, Options{}), newOnePartition(c, Options{})
	for _, set := range []struct {
		name  string
		ps    []core.Pair
		ratio float64 // the most New may expand, as a share of the oracle's
	}{
		{"uniform", uniformPairs(g, c, 50_000, 4203), 0.8},
		{"positive", knownPositives(g, c, 5_000, 4204), 0.95},
	} {
		got, gotN, gotDec := fallbackCost(ix, set.ps)
		want, wantN, wantDec := fallbackCost(oracle, set.ps)
		for i, p := range set.ps {
			if got[i] != want[i] {
				t.Fatalf("%s pair (%d,%d): Lin groups say %v, one partition %v", set.name, p.S, p.T, got[i], want[i])
			}
		}
		t.Logf("%d %s pairs: %d expansions, %d decided (one partition: %d, %d)", len(set.ps), set.name, gotN, gotDec, wantN, wantDec)
		if wantN == 0 {
			t.Fatalf("one partition expands nothing on the %s pairs: they test nothing", set.name)
		}
		if float64(gotN) > set.ratio*float64(wantN) {
			t.Errorf("%s pairs: Lin groups expand %d, more than %.2f× one partition's %d", set.name, gotN, set.ratio, wantN)
		}
		if set.name == "uniform" && 100*gotDec < 100*wantDec-len(set.ps) {
			t.Errorf("uniform pairs: Lin groups decide %d of %d, more than a point below one partition's %d", gotDec, len(set.ps), wantDec)
		}
	}
}

// BenchmarkGroupSweep is the count sweep behind groups and linGroups:
// guided-DFS expansions per uniform pair ("exp/pair") and per known
// positive ("exp/pos"), and the share of uniform pairs decided without
// one, for the random hash and for every pair of G_out (Lout's groups)
// and G_in (Lin's groups), swept separately (G=n: one group per id). Its
// ns/op is one build's. The counts are exact and repeat; run
//
//	go test -run '^$' -bench GroupSweep -benchtime 1x ./internal/bfl
//
// (a few minutes per 10⁶-vertex graph; a sub-benchmark name such as
// 'GroupSweep/dag-m4n-100000$/out=4096' picks one graph and one G_out).
func BenchmarkGroupSweep(b *testing.B) {
	type input struct {
		name string
		make func() *graph.Digraph
	}
	var inputs []input
	for _, n := range []int{2_000, 10_000, 100_000, 1_000_000} {
		for _, deg := range []int{2, 4, 8} {
			inputs = append(inputs, input{fmt.Sprintf("dag-m%dn-%d", deg, n), func() *graph.Digraph {
				return gen.RandomDAG(gen.Config{N: n, M: deg * n, Seed: 4101})
			}})
		}
	}
	inputs = append(inputs,
		input{"er-m2n-1e5", func() *graph.Digraph { return gen.ErdosRenyi(gen.Config{N: 100_000, M: 200_000, Seed: 4102}) }},
		input{"banded-m4n-1e5", func() *graph.Digraph {
			return gen.BandedDAG(gen.Config{N: 100_000, M: 400_000, Seed: 4103}, 64)
		}},
		input{"scalefree-3-1e5", func() *graph.Digraph { return gen.ScaleFree(100_000, 3, 4104) }},
		input{"layered-200x500", func() *graph.Digraph { return gen.LayeredDAG(200, 500, 3, 4105) }},
		input{"treeplus-1e5", func() *graph.Digraph { return gen.TreePlus(100_000, 10_000, 4106) }},
	)
	// label names a group count, writing n as "n".
	label := func(gs, n int) string {
		if gs == n {
			return "n"
		}
		return fmt.Sprint(gs)
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			g := in.make()
			c := scc.Condense(g, 0)
			uniform := uniformPairs(g, c, 20_000, 4107)
			positives := knownPositives(g, c, 2_000, 4108)
			n := c.DAG.N()
			sweep := func(b *testing.B, bits func(graph.V) (out, in uint32)) {
				var ix *Index
				for i := 0; i < b.N; i++ {
					ix = newWith(c, Options{}, bits)
				}
				_, expanded, decided := fallbackCost(ix, uniform)
				_, posExpanded, _ := fallbackCost(ix, positives)
				b.ReportMetric(float64(expanded)/float64(len(uniform)), "exp/pair")
				b.ReportMetric(float64(posExpanded)/float64(len(positives)), "exp/pos")
				b.ReportMetric(float64(decided)/float64(len(uniform)), "decided")
			}
			b.Run("hash", func(b *testing.B) { sweep(b, hashBits(0)) })
			for _, out := range []int{1024, 4096, 16384} {
				b.Run("out="+label(out, n), func(b *testing.B) {
					for _, gin := range []int{112, 224, 336, 448, 672, 1024, 4096, 16384, n} {
						b.Run("in="+label(gin, n), func(b *testing.B) { sweep(b, groupBits(n, out, gin, 0)) })
					}
				})
			}
		})
	}
}

// Tests for the parallel-construction guarantee of Options.Workers: for a
// fixed Seed, the index built at any worker count answers every query
// identically (the internal/par substrate makes each work item a pure
// function of its index, not of goroutine scheduling). Run under -race
// these tests also certify the fan-out/fan-in and level-sweep barriers.
package reach_test

import (
	"testing"

	reach "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/survey"
	"repro/internal/tc"
)

// parallelKinds are the plain index kinds with a parallelized build phase.
var parallelKinds = []struct {
	kind reach.Kind
	opt  reach.Options
}{
	{reach.KindGRAIL, reach.Options{K: 3, Seed: 11}},
	{reach.KindFerrari, reach.Options{K: 3}},
	{reach.KindIP, reach.Options{K: 8, Seed: 11}},
	{survey.KindOReach, reach.Options{K: 16}},
	{reach.KindBFL, reach.Options{Bits: 256, Seed: 11}},
	{survey.KindDBL, reach.Options{K: 16, Bits: 256, Seed: 11}},
}

// answers evaluates ix on every (s, t) pair of g.
func answers(ix reach.Index, g *reach.Graph) []bool {
	n := g.N()
	out := make([]bool, 0, n*n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			out = append(out, ix.Reach(reach.V(s), reach.V(t)))
		}
	}
	return out
}

func TestParallelBuildDeterminism(t *testing.T) {
	graphs := map[string]*reach.Graph{
		"dag":    gen.RandomDAG(gen.Config{N: 150, M: 600, Seed: 2}),
		"cyclic": gen.ErdosRenyi(gen.Config{N: 150, M: 600, Seed: 3}),
	}
	for gname, g := range graphs {
		for _, tk := range parallelKinds {
			opt := tk.opt
			opt.Workers = 1
			base, err := reach.Build(tk.kind, g, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := answers(base, g)
			for _, workers := range []int{0, 2, 8} {
				opt.Workers = workers
				ix, err := reach.Build(tk.kind, g, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := answers(ix, g)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s on %s: workers=%d diverges from serial at pair %d",
							tk.kind, gname, workers, i)
					}
				}
			}
		}
	}
}

// TestParallelClosureDeterminism pins the parallel exact-TC construction
// (tc.NewClosureN) to the serial oracle bit for bit.
func TestParallelClosureDeterminism(t *testing.T) {
	for _, g := range []*reach.Graph{
		gen.RandomDAG(gen.Config{N: 300, M: 1500, Seed: 5}),
		gen.ErdosRenyi(gen.Config{N: 300, M: 1500, Seed: 6}),
	} {
		serial := tc.NewClosure(g)
		for _, workers := range []int{0, 2, 8} {
			par := tc.NewClosureN(g, workers)
			if par.Pairs() != serial.Pairs() {
				t.Fatalf("workers=%d: %d reachable pairs, serial has %d",
					workers, par.Pairs(), serial.Pairs())
			}
			for s := 0; s < g.N(); s += 7 {
				for tgt := 0; tgt < g.N(); tgt += 3 {
					if par.Reach(reach.V(s), reach.V(tgt)) != serial.Reach(reach.V(s), reach.V(tgt)) {
						t.Fatalf("workers=%d: Reach(%d,%d) diverges", workers, s, tgt)
					}
				}
			}
		}
	}
}

// TestBatchReachWorkStealing checks the batch API against serial execution
// at several worker counts (the work-stealing loop must neither skip nor
// duplicate slots).
func TestBatchReachWorkStealing(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 2000, M: 8000, Seed: 8})
	ix, err := reach.Build(reach.KindBFL, g, reach.Options{Bits: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Past the inline cut, so every worker count but 1 runs the block
	// form on the pool, and a ragged last block.
	qs := gen.Queries(g, 2*core.BatchInline+core.BatchBlock/2+1, 12)
	pairs := make([]reach.Pair, len(qs))
	for i, q := range qs {
		pairs[i] = reach.Pair{S: q.S, T: q.T}
	}
	want, err := reach.BatchReach(ix, g, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if want[i] != q.Want {
			t.Fatalf("serial batch wrong at %d", i)
		}
	}
	for _, workers := range []int{-1, 0, 2, 3, 8} {
		got, err := reach.BatchReach(ix, g, pairs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d diverges", workers, i)
			}
		}
	}
}

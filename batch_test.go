package reach

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/tc"
)

func TestBatchReachMatchesSequential(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 300, M: 900, Seed: 1})
	ix, err := Build(KindBFL, g, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	oracle := tc.NewClosure(g)
	rng := rand.New(rand.NewSource(2))
	pairs := make([]Pair, 3000)
	for i := range pairs {
		pairs[i] = Pair{S: V(rng.Intn(g.N())), T: V(rng.Intn(g.N()))}
	}
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := BatchReach(ix, g, pairs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(pairs) {
			t.Fatalf("workers=%d: %d answers", workers, len(got))
		}
		for i, p := range pairs {
			if got[i] != oracle.Reach(p.S, p.T) {
				t.Fatalf("workers=%d: wrong answer at %d", workers, i)
			}
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	g := Fig1Plain()
	ix, _ := Build(KindPLL, g, Options{})
	if got, err := BatchReach(ix, g, nil, 4); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: got %v, err %v", got, err)
	}
}

package survey

import (
	"errors"
	"math/rand"
	"testing"

	reach "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/tc"
)

func TestBuildDynamicKinds(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 40, M: 100, Seed: 4})
	for _, k := range []reach.Kind{reach.KindTOL, KindDAGGER, KindDBL} {
		ix, err := BuildDynamic(k, g, reach.Options{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if err := ix.InsertEdge(0, 1); err != nil {
			t.Fatalf("%s insert: %v", k, err)
		}
		if !ix.Reach(0, 1) {
			t.Fatalf("%s: inserted edge not reachable", k)
		}
	}
	if _, err := BuildDynamic(reach.KindBFL, g, reach.Options{}); err == nil {
		t.Fatal("BFL is not dynamic; BuildDynamic should fail")
	}
	if _, err := BuildDynamic(reach.KindTOL, g, reach.Options{K: -1}); !errors.Is(err, reach.ErrBadOptions) {
		t.Errorf("BuildDynamic bad options err = %v, want ErrBadOptions", err)
	}
}

func TestStressDynamicInterleaved(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	// Interleave updates and query audits on every dynamic kind across
	// multiple seeds; DBL only sees insertions.
	for seed := int64(300); seed < 303; seed++ {
		for _, k := range []reach.Kind{reach.KindTOL, KindDAGGER} {
			g := gen.RandomDAG(gen.Config{N: 70, M: 170, Seed: seed})
			ix, err := BuildDynamic(k, g, reach.Options{K: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			script := gen.UpdateScript(g, 40, true, seed+1)
			cur := core.NewDynGraph(g)
			rng := rand.New(rand.NewSource(seed * 17))
			for i, op := range script {
				if op.Insert {
					cur.Insert(op.Edge.From, op.Edge.To)
					if err := ix.InsertEdge(op.Edge.From, op.Edge.To); err != nil {
						t.Fatal(err)
					}
				} else {
					cur.Delete(op.Edge.From, op.Edge.To)
					if err := ix.DeleteEdge(op.Edge.From, op.Edge.To); err != nil {
						t.Fatal(err)
					}
				}
				oracle := tc.NewClosure(freeze(cur))
				for q := 0; q < 50; q++ {
					s := reach.V(rng.Intn(g.N()))
					tt := reach.V(rng.Intn(g.N()))
					if got, want := ix.Reach(s, tt), oracle.Reach(s, tt); got != want {
						t.Fatalf("seed %d %s op %d: (%d,%d) = %v want %v",
							seed, k, i, s, tt, got, want)
					}
				}
			}
		}
	}
}

// freeze copies d's current edges into an immutable graph.
func freeze(d *core.DynGraph) *reach.Graph {
	b := reach.NewBuilder(d.N())
	for u := 0; u < d.N(); u++ {
		for _, v := range d.Succ(reach.V(u)) {
			b.AddEdge(reach.V(u), v)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return g
}

package reach

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/tc"
)

func TestBuildAllKinds(t *testing.T) {
	// Every registered kind must build on both a DAG and a cyclic graph
	// and agree with the exact closure.
	graphs := map[string]*Graph{
		"dag":    gen.RandomDAG(gen.Config{N: 60, M: 150, Seed: 1}),
		"cyclic": gen.ErdosRenyi(gen.Config{N: 50, M: 160, Seed: 2}),
		"fig1":   Fig1Plain(),
	}
	for name, g := range graphs {
		oracle := tc.NewClosure(g)
		for _, k := range Kinds() {
			ix, err := Build(k, g, Options{Seed: 3})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, k, err)
			}
			for s := V(0); int(s) < g.N(); s += 2 {
				for tt := V(0); int(tt) < g.N(); tt += 3 {
					if got, want := ix.Reach(s, tt), oracle.Reach(s, tt); got != want {
						t.Fatalf("%s/%s: Reach(%d,%d) = %v, want %v", name, k, s, tt, got, want)
					}
				}
			}
			if ix.Name() == "" {
				t.Errorf("%s: empty name", k)
			}
		}
	}
}

func TestBuildUnknownKind(t *testing.T) {
	if _, err := Build("nope", Fig1Plain(), Options{}); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestBuildLCRKinds(t *testing.T) {
	g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: 40, M: 140, Seed: 5}), 4, 0.7, 6)
	oracle := tc.NewGTC(g)
	for _, k := range LCRKinds() {
		ix, err := BuildLCR(k, g, Options{K: 8})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		for s := V(0); int(s) < g.N(); s += 3 {
			for tt := V(0); int(tt) < g.N(); tt += 3 {
				for mask := uint64(1); mask < 16; mask *= 3 {
					want := s == tt || oracle.ReachLC(s, tt, labelSet(mask))
					if got := ix.ReachLC(s, tt, labelSet(mask)); got != want {
						t.Fatalf("%s: ReachLC(%d,%d,%b) = %v, want %v", k, s, tt, mask, got, want)
					}
				}
			}
		}
	}
	// Unlabeled graph must be rejected.
	if _, err := BuildLCR(LCRP2H, Fig1Plain(), Options{}); err == nil {
		t.Fatal("LCR on unlabeled graph should fail")
	}
	if _, err := BuildLCR("nope", g, Options{}); err == nil {
		t.Fatal("unknown LCR kind should fail")
	}
}

func TestBuildRLC(t *testing.T) {
	g := Fig1Labeled()
	ix, err := BuildRLC(g, Options{MaxSeq: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := g.VertexByName("L")
	b, _ := g.VertexByName("B")
	if !ix.ReachRLC(l, b, []Label{2, 0}) {
		t.Error("Fig1 RLC example failed")
	}
	if _, err := BuildRLC(Fig1Plain(), Options{}); err == nil {
		t.Fatal("RLC on unlabeled graph should fail")
	}
}

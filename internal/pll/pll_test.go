package pll

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/indextest"
	"repro/internal/tc"
)

func TestConformanceDegree(t *testing.T) {
	indextest.CheckGeneralIndex(t, func(g *graph.Digraph) core.Index {
		return New(g, Options{Order: OrderDegree})
	})
}

func TestConformanceTopological(t *testing.T) {
	indextest.CheckGeneralIndex(t, func(g *graph.Digraph) core.Index {
		return New(g, Options{Order: OrderTopological})
	})
}

func TestConformanceDegreeProduct(t *testing.T) {
	indextest.CheckGeneralIndex(t, func(g *graph.Digraph) core.Index {
		return New(g, Options{Order: OrderDegreeProduct})
	})
}

func TestNames(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 20, M: 40, Seed: 1})
	if New(g, Options{}).Name() != "PLL" {
		t.Error("default name")
	}
	if New(g, Options{Order: OrderTopological}).Name() != "TFL" {
		t.Error("topo name")
	}
	if New(g, Options{Name: "DL"}).Name() != "DL" {
		t.Error("override name")
	}
}

func TestCompleteIndexPureLookup(t *testing.T) {
	// A complete index must agree with the oracle using Reach only —
	// trivially true here, but also verify label sizes are far below TC.
	g := gen.ScaleFree(400, 3, 2)
	ix := New(g, Options{})
	oracle := tc.NewClosure(g)
	pairs := oracle.Pairs()
	in, out := ix.LabelSizes()
	if in+out >= pairs {
		t.Errorf("2-hop labels (%d) should undercut TC pairs (%d) on scale-free graphs",
			in+out, pairs)
	}
}

func TestLabelsSortedByRank(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 150, M: 450, Seed: 3})
	ix := New(g, Options{})
	for v := 0; v < g.N(); v++ {
		lin := ix.in.Row(v)
		for i := 1; i < len(lin); i++ {
			if lin[i-1] >= lin[i] {
				t.Fatalf("in[%d] not strictly ascending", v)
			}
		}
		lout := ix.out.Row(v)
		for i := 1; i < len(lout); i++ {
			if lout[i-1] >= lout[i] {
				t.Fatalf("out[%d] not strictly ascending", v)
			}
		}
	}
}

func TestLabelsSound(t *testing.T) {
	// Every label entry must certify a real reachability: r ∈ in[v] means
	// hub(r) reaches v; r ∈ out[v] means v reaches hub(r).
	g := gen.ErdosRenyi(gen.Config{N: 60, M: 200, Seed: 4})
	ix := New(g, Options{})
	oracle := tc.NewClosure(g)
	hub := make([]graph.V, g.N())
	for v := 0; v < g.N(); v++ {
		hub[ix.rank[v]] = graph.V(v)
	}
	for v := 0; v < g.N(); v++ {
		lin := ix.in.Row(v)
		for _, r := range lin {
			if !oracle.Reach(hub[r], graph.V(v)) {
				t.Fatalf("unsound Lin entry: hub %d does not reach %d", hub[r], v)
			}
		}
		lout := ix.out.Row(v)
		for _, r := range lout {
			if !oracle.Reach(graph.V(v), hub[r]) {
				t.Fatalf("unsound Lout entry: %d does not reach hub %d", v, hub[r])
			}
		}
	}
}

func TestStats(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 100, M: 300, Seed: 5})
	ix := New(g, Options{})
	st := ix.Stats()
	if st.Entries <= 0 || st.Bytes <= 0 {
		t.Errorf("stats %+v", st)
	}
	in, out := ix.LabelSizes()
	if in+out != st.Entries {
		t.Errorf("entries %d != label sizes %d", st.Entries, in+out)
	}
}

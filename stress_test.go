package reach

// Stress sweeps: every index kind cross-validated against the exact
// oracles over many random graph families and seeds. These widen the
// per-package conformance tests with cross-family coverage; skipped under
// -short.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/labelset"
	"repro/internal/obs"
	"repro/internal/tc"
)

func stressGraphs(seed int64) map[string]*Graph {
	return map[string]*Graph{
		"dag-sparse": gen.RandomDAG(gen.Config{N: 150, M: 220, Seed: seed}),
		"dag-dense":  gen.RandomDAG(gen.Config{N: 90, M: 800, Seed: seed}),
		"er":         gen.ErdosRenyi(gen.Config{N: 100, M: 350, Seed: seed}),
		"scalefree":  gen.ScaleFree(140, 3, seed),
		"layered":    gen.LayeredDAG(8, 12, 2, seed),
		"treeplus":   gen.TreePlus(130, 30, seed),
	}
}

func TestStressAllPlainKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	for seed := int64(100); seed < 103; seed++ {
		for name, g := range stressGraphs(seed) {
			oracle := tc.NewClosure(g)
			for _, k := range Kinds() {
				ix, err := Build(k, g, Options{Seed: seed, K: 2, Bits: 128})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, k, err)
				}
				rng := rand.New(rand.NewSource(seed * 7))
				for q := 0; q < 400; q++ {
					s := V(rng.Intn(g.N()))
					tt := V(rng.Intn(g.N()))
					if got, want := ix.Reach(s, tt), oracle.Reach(s, tt); got != want {
						t.Fatalf("seed %d %s/%s: Reach(%d,%d) = %v, want %v",
							seed, name, k, s, tt, got, want)
					}
				}
			}
		}
	}
}

func TestStressAllLCRKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	for seed := int64(200); seed < 203; seed++ {
		for _, labels := range []int{2, 5} {
			g := gen.Zipf(gen.ErdosRenyi(gen.Config{N: 60, M: 220, Seed: seed}), labels, 0.6, seed+1)
			oracle := tc.NewGTC(g)
			for _, k := range LCRKinds() {
				ix, err := BuildLCR(k, g, Options{K: 8, Bits: 128, Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				rng := rand.New(rand.NewSource(seed * 13))
				for q := 0; q < 500; q++ {
					s := V(rng.Intn(g.N()))
					tt := V(rng.Intn(g.N()))
					mask := labelset.Set(rng.Int63n(1 << uint(labels)))
					want := s == tt || oracle.ReachLC(s, tt, mask)
					if got := ix.ReachLC(s, tt, mask); got != want {
						t.Fatalf("seed %d |L|=%d %s: ReachLC(%d,%d,%b) = %v, want %v",
							seed, labels, k, s, tt, mask, got, want)
					}
				}
			}
		}
	}
}

// TestStressMetricsConcurrent hammers an instrumented index from many
// goroutines while another goroutine snapshots the metrics continuously:
// snapshots must be race-free (run under -race in CI) and every counter
// monotone, and the final totals must equal the submitted load exactly.
func TestStressMetricsConcurrent(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 300, M: 900, Seed: 42})
	raw, err := Build(KindBFL, g, Options{Bits: 128})
	if err != nil {
		t.Fatal(err)
	}
	var m obs.IndexMetrics
	ix := core.Instrument(raw, g, &m)
	oracle := tc.NewClosure(g)

	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < per; i++ {
				s := V(rng.Intn(g.N()))
				tt := V(rng.Intn(g.N()))
				if got, want := ix.Reach(s, tt), oracle.Reach(s, tt); got != want {
					t.Errorf("Reach(%d,%d) = %v, want %v", s, tt, got, want)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last obs.IndexSnapshot
		for i := 0; i < 500; i++ {
			s := m.Snapshot()
			// Decided is excluded: it is derived (Queries-Fallback) from
			// counters read at different instants, so it may transiently
			// overestimate under load; every stored counter is monotone.
			if s.Queries < last.Queries || s.Positive < last.Positive ||
				s.Negative < last.Negative ||
				s.Fallback < last.Fallback || s.Visited < last.Visited {
				t.Errorf("snapshot regressed: %+v -> %+v", last, s)
				return
			}
			last = s
		}
	}()
	wg.Wait()
	<-done

	s := m.Snapshot()
	const total = workers * per
	if s.Queries != total {
		t.Fatalf("queries = %d, want %d", s.Queries, total)
	}
	if s.Positive+s.Negative != total {
		t.Fatalf("positive+negative = %d, want %d", s.Positive+s.Negative, total)
	}
	if s.Decided+s.Fallback != total {
		t.Fatalf("decided+fallback = %d, want %d", s.Decided+s.Fallback, total)
	}
	// Latency is sampled, so the histogram holds a subset of the load;
	// it must still be nonempty and never exceed the true total.
	if s.Latency.Count == 0 || s.Latency.Count > total {
		t.Fatalf("latency count = %d, want in 1..%d", s.Latency.Count, total)
	}
}

// mutableCopy is a tiny edge-set mirror for the stress scripts.
type mutableCopy2 struct {
	n     int
	edges map[[2]V]bool
}

func mutableCopy(g *Graph) *mutableCopy2 {
	m := &mutableCopy2{n: g.N(), edges: map[[2]V]bool{}}
	for _, e := range g.EdgeList() {
		m.edges[[2]V{e.From, e.To}] = true
	}
	return m
}

func (m *mutableCopy2) insert(u, v V) { m.edges[[2]V{u, v}] = true }
func (m *mutableCopy2) remove(u, v V) { delete(m.edges, [2]V{u, v}) }
func (m *mutableCopy2) freeze() *Graph {
	b := NewBuilder(m.n)
	for e := range m.edges {
		b.AddEdge(e[0], e[1])
	}
	g, _ := b.Freeze()
	return g
}

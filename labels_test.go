package reach

// Flat label storage, guarded by a count: a steady-state query on a
// label-backed kind allocates nothing.

import (
	"runtime/debug"
	"testing"

	"repro/internal/gen"
)

// TestLabelQueryZeroAlloc: pll, tol and bfl answer 2000 queries on a
// 2000-vertex, 8000-edge DAG without a heap allocation.
func TestLabelQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; zero-alloc cannot hold")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the pool's arenas
	g := gen.RandomDAG(gen.Config{N: 2000, M: 8000, Seed: 1})
	qs := gen.Queries(g, 2000, 2)
	for _, k := range []Kind{KindPLL, KindTOL, KindBFL} {
		ix, err := Build(k, g, Options{Bits: 256, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		wrong := 0
		sweep := func() {
			for _, q := range qs {
				if ix.Reach(q.S, q.T) != q.Want {
					wrong++
				}
			}
		}
		sweep() // warm the scratch pool
		if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
			t.Errorf("%s: %d queries allocate %.1f objects, want 0", k, len(qs), allocs)
		}
		if wrong > 0 {
			t.Errorf("%s: %d wrong answers", k, wrong)
		}
	}
}

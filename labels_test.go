package reach

// Flat label storage, guarded by counts: a steady-state query on a
// CSR-backed kind allocates nothing, and the varint encoding shrinks the
// 2-hop label payload by at least a quarter.

import (
	"runtime/debug"
	"testing"

	"repro/internal/gen"
)

// TestLabelQueryZeroAlloc: pll, tol and bfl (raw encoding) answer 2000
// queries on a 2000-vertex, 8000-edge DAG without a heap allocation.
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

// TestVarintLabelsShrink: at n=20000, m=4n the varint encoding stores pll's
// and tol's label payload in at most 3/4 of the raw encoding's bytes.
func TestVarintLabelsShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four 20000-vertex 2-hop indexes")
	}
	g := gen.RandomDAG(gen.Config{N: 20000, M: 80000, Seed: 1})
	for _, k := range []Kind{KindPLL, KindTOL} {
		var labels [2]int
		for i, enc := range []LabelEncoding{EncRaw, EncVarint} {
			ix, err := Build(k, g, Options{Seed: 1, LabelEnc: enc})
			if err != nil {
				t.Fatal(err)
			}
			_, lab, _, ok := IndexSizes(ix)
			if !ok || lab == 0 {
				t.Fatalf("%s: no label footprint (ok=%v, labels=%d)", k, ok, lab)
			}
			labels[i] = lab
		}
		ratio := float64(labels[1]) / float64(labels[0])
		t.Logf("%s: label bytes raw %d, varint %d (%.3f)", k, labels[0], labels[1], ratio)
		if ratio > 0.75 {
			t.Errorf("%s: varint labels are %.3f of raw, want <= 0.75", k, ratio)
		}
	}
}

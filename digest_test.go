package reach

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/gen"
	"repro/internal/grail"
	"repro/internal/graph"
	"repro/internal/scc"
)

// TestSnapshotDigests pins the bytes the build path produces: the
// SHA-256 of the condensation's Comp and of both sides of its CSR, of the
// graph snapshot, of the BFL and PLL snapshots, and of GRAIL's labels
// (which come from order.DFSForest), on a random DAG and on a cyclic ER
// graph with fixed seeds. A change that alters any of them on
// purpose updates the digest here and says why in CHANGES.md; a change
// that alters one by accident fails here.
func TestSnapshotDigests(t *testing.T) {
	want := map[string]string{
		"dag/comp":  "cacd1e6f55e93ac8f55b87bce280719ce929d37a7789a80a0db9a6ab7a094fdf",
		"dag/succ":  "4422728a8c62439d9c23edf39fcf3090db83d8e2f5afab412c14f13397399d6d",
		"dag/pred":  "7a50cd784f40a9543f61b96e7c829dc68f58023e5ce3524dbc04c0f2f6026d44",
		"dag/graph": "f49ff92070d8e965a6eeca63c00fb75cdf49b688395bcd6aa78937f44acaf54d",
		"dag/bfl":   "5b0c7c745f5b67b3873cecfcb993b932d75f4f66c685e5abda663f433e1dcd6b",
		"dag/pll":   "190d229ca7b22ba8620d8fd2b4087c434efddb1641533e6db94409110c7e6c07",
		"dag/grail": "47eec035624b42d337ce82ab745e115a50acbfb4a146e127f91acb6ccb2c1d78",
		"er/comp":   "a0cf24b8e8340debae2937b3b33f46bb916b879fa15e932dd0e8700b6bea9e52",
		"er/succ":   "051446ff207899c9b77b1749e1a01b761ecfb3180cd07e4064e49b81b2581607",
		"er/pred":   "f201ebb82f904acc3ec2acd9c936dd9bf3c0a6755a1e5203499096bbd4e84199",
		"er/graph":  "9a1dd62ecfffc77a7fba2f715b94639a8a636ab0c58f3a3686cae18863681a7b",
		"er/bfl":    "1df5e52449bb4ab88d345e69d126e664927bc9d23768706113351107574436ea",
		"er/pll":    "506c29191e22812039c6e73e126edeaa3dc95b4d4b89cc35ef8f95f785f7acbc",
		"er/grail":  "b390ef6eaa9f9c9f01fdcd6c23ce061f096494ffce592c082ef20a1b7136fbc4",
	}
	for _, in := range []struct {
		name string
		g    *graph.Digraph
	}{
		{"dag", gen.RandomDAG(gen.Config{N: 20_000, M: 80_000, Seed: 1601})},
		{"er", gen.ErdosRenyi(gen.Config{N: 20_000, M: 40_000, Seed: 1602})},
	} {
		c := scc.Condense(in.g, 0)
		var gsnap, bsnap bytes.Buffer
		if _, err := in.g.WriteSnapshot(&gsnap); err != nil {
			t.Fatal(err)
		}
		ix, err := Build(KindBFL, in.g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveIndex(&bsnap, ix); err != nil {
			t.Fatal(err)
		}
		var psnap bytes.Buffer
		pll, err := Build(KindPLL, in.g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveIndex(&psnap, pll); err != nil {
			t.Fatal(err)
		}
		mins, posts := grail.New(c.DAG, grail.Options{K: 3, Seed: 1603}).Labels()
		got := map[string][]byte{
			"comp":  u32Bytes(nil, c.Comp),
			"succ":  csrBytes(c.DAG, c.DAG.Succ),
			"pred":  csrBytes(c.DAG, c.DAG.Pred),
			"graph": gsnap.Bytes(),
			"bfl":   bsnap.Bytes(),
			"pll":   psnap.Bytes(),
			"grail": u32Bytes(u32Bytes(nil, mins), posts),
		}
		for part, b := range got {
			key := in.name + "/" + part
			sum := sha256.Sum256(b)
			if d := hex.EncodeToString(sum[:]); d != want[key] {
				t.Errorf("%s: SHA-256 %s, pinned %q", key, d, want[key])
			}
		}
	}
}

// u32Bytes appends the little-endian image of xs to b.
func u32Bytes(b []byte, xs []uint32) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

// csrBytes is one CSR side of g as bytes: its offsets, then its targets.
func csrBytes(g *graph.Digraph, side func(graph.V) []graph.V) []byte {
	off := make([]uint32, 1, g.N()+1)
	var targets []uint32
	for v := graph.V(0); int(v) < g.N(); v++ {
		targets = append(targets, side(v)...)
		off = append(off, uint32(len(targets)))
	}
	return u32Bytes(u32Bytes(nil, off), targets)
}

package main

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/traversal"
)

// TestQueryStreamIndependentOfGraph pins the seed hygiene: the uniform
// pair stream must not replay the graph generator's edge endpoints. It
// also shows the hazard it guards against — one raw seed handed to both
// gen.RandomDAG and a math/rand pair stream, where after the generator's
// permutation draws the "queries" are the graph's own edges.
func TestQueryStreamIndependentOfGraph(t *testing.T) {
	const n, m, seed = 8000, 32000, 1
	hits := func(g *graph.Digraph, pair func(i int) (uint32, uint32)) (edges, reachable int) {
		for i := 0; i < 2*n; i++ {
			s, t := pair(i)
			if g.HasEdge(graph.V(s), graph.V(t)) || g.HasEdge(graph.V(t), graph.V(s)) {
				edges++
			}
			if i >= n/2 && s != t && traversal.BFS(g, graph.V(s), graph.V(t)) {
				reachable++
			}
		}
		return edges, reachable
	}

	g := gen.RandomDAG(gen.Config{N: n, M: m, Seed: subSeed63(seed, "graph")})
	key := subSeed(seed, "queries")
	edges, reachable := hits(g, func(i int) (uint32, uint32) { return pairAt(key, uint64(i), n) })
	// 2n uniform pairs hit one of m edges (either direction) 2n·2m/n² = 16
	// times on average; 1.5n of them are reachable a fraction of a percent
	// of the time on a DAG this sparse.
	if edges > 60 {
		t.Errorf("sub-seeded stream: %d of %d pairs are graph edges; the stream replays the generator", edges, 2*n)
	}
	if share := float64(reachable) / (1.5 * n); share > 0.05 {
		t.Errorf("sub-seeded stream: %.1f %% of pairs positive, want the graph's natural fraction of a percent", 100*share)
	}

	// The hazard: same raw seed for the graph and a math/rand pair stream.
	raw := gen.RandomDAG(gen.Config{N: n, M: m, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	rawEdges, rawReachable := hits(raw, func(int) (uint32, uint32) { return uint32(rng.Intn(n)), uint32(rng.Intn(n)) })
	if rawEdges < n/2 || float64(rawReachable)/(1.5*n) < 0.2 {
		t.Logf("raw-seed stream no longer replays the generator (%d edge hits, %d reachable): gen's RNG use changed; the hazard demo is stale, the guarantee above still holds",
			rawEdges, rawReachable)
	}
}

func TestSubSeedsDiffer(t *testing.T) {
	seen := map[uint64]string{}
	for _, seed := range []uint64{0, 1, 2} {
		for _, stream := range []string{"graph", "verify", "positives", "updates", "point-open", "point-closed"} {
			k := subSeed(seed, stream)
			if prev, dup := seen[k]; dup {
				t.Errorf("sub-seed collision: %d/%s and %s", seed, stream, prev)
			}
			seen[k] = stream
		}
	}
}

// TestStreamDrawsVerificationPairs checks the stream's mix: every 64th
// draw comes from the verification set with its known answer, the rest of
// a uniform stream carry no answer, and the embedded mix takes about a
// tenth of the rest from the positive pool.
func TestStreamDrawsVerificationPairs(t *testing.T) {
	verify := []gen.Query{{S: 1, T: 2, Want: true}, {S: 3, T: 4, Want: false}}
	pos := []gen.Query{{S: 5, T: 6, Want: true}}
	st := &stream{key: 7, n: 1000, verify: verify, pos: pos, posTenths: 1}
	positives := 0
	const draws = 64000
	for i := uint64(0); i < draws; i++ {
		s, tt, want := st.draw(i)
		switch {
		case i%verifyEvery == 0:
			q := verify[(i/verifyEvery)%2]
			if s != uint32(q.S) || tt != uint32(q.T) || (want == wantTrue) != q.Want {
				t.Fatalf("draw %d = (%d,%d,%d), want verification pair %+v", i, s, tt, want, q)
			}
		case s == 5 && tt == 6:
			if want != wantTrue {
				t.Fatalf("draw %d: positive pair without its answer", i)
			}
			positives++
		default:
			if want != wantUnknown || s >= 1000 || tt >= 1000 {
				t.Fatalf("draw %d = (%d,%d,%d), want an in-range pair of unknown answer", i, s, tt, want)
			}
		}
	}
	if share := float64(positives) / draws; share < 0.08 || share > 0.12 {
		t.Errorf("positive share %.3f, want about 0.10", share)
	}
	if wrong(true, wantUnknown) || wrong(false, wantFalse) || !wrong(false, wantTrue) || !wrong(true, wantFalse) {
		t.Error("wrong() misjudges an answer")
	}
}

package main

import (
	"bufio"
	"os"
	"path/filepath"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

const (
	verifyPairs = 2000  // verification set, ground truth by traversal.BFS
	verifyEvery = 64    // every 64th operation comes from it
	posPool     = 32768 // known-positive pairs the embedded mix draws from
)

// inputs is everything a workload feeds the system, generated from the run
// seed; the system under test only ever sees the graph file and requests.
type inputs struct {
	g      *graph.Digraph
	n      int
	path   string  // edge-list file handed to reachserve
	genS   float64 // gen.RandomDAG wall time
	seed   uint64
	verify []gen.Query
}

// makeInputs generates the random DAG of n vertices and m edges for the
// run seed, its verification set, and the graph file under dir.
func makeInputs(seed uint64, n, m int, dir string) (*inputs, error) {
	in := &inputs{seed: seed, path: filepath.Join(dir, "graph.txt")}
	t0 := time.Now()
	in.g = gen.RandomDAG(gen.Config{N: n, M: m, Seed: subSeed63(seed, "graph")})
	in.genS = time.Since(t0).Seconds()
	in.n = in.g.N()
	in.verify = gen.Queries(in.g, verifyPairs, subSeed63(seed, "verify"))

	f, err := os.Create(in.path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := reach.WriteGraph(w, in.g); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return in, f.Close()
}

// answer of a drawn query when the generator knows it.
const (
	wantFalse   int8 = 0
	wantTrue    int8 = 1
	wantUnknown int8 = -1
)

// stream is a deterministic query stream over one graph: operation i is a
// pure function of (key, i). Every verifyEvery-th operation comes from the
// verification set, a share posTenths/10 of the rest from the positive
// pool (when there is one), and the remainder are uniform pairs, whose
// answers the generator does not know.
type stream struct {
	key       uint64
	n         int
	verify    []gen.Query
	pos       []gen.Query
	posTenths uint64
}

func (in *inputs) uniform(name string) *stream {
	return &stream{key: subSeed(in.seed, name), n: in.n, verify: in.verify}
}

// withPositives returns the embedded mix: 90 % uniform pairs and 10 % pairs
// known to be reachable, so the index's guided-traversal fallback runs.
func (in *inputs) withPositives(name string) *stream {
	st := in.uniform(name)
	st.pos = gen.QueriesWithRatio(in.g, posPool, 1.0, subSeed63(in.seed, "positives"))
	st.posTenths = 1
	return st
}

func (st *stream) draw(i uint64) (s, t uint32, want int8) {
	if i%verifyEvery == 0 {
		return known(st.verify[(i/verifyEvery)%uint64(len(st.verify))])
	}
	if st.posTenths > 0 {
		if h := mix64(st.key ^ i); h%10 < st.posTenths {
			return known(st.pos[(h>>8)%uint64(len(st.pos))])
		}
	}
	s, t = pairAt(st.key, i, st.n)
	return s, t, wantUnknown
}

func known(q gen.Query) (s, t uint32, want int8) {
	if q.Want {
		return uint32(q.S), uint32(q.T), wantTrue
	}
	return uint32(q.S), uint32(q.T), wantFalse
}

// wrong reports whether got contradicts a known answer.
func wrong(got bool, want int8) bool {
	return want != wantUnknown && got != (want == wantTrue)
}

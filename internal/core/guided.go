package core

import (
	"repro/internal/graph"
	"repro/internal/scratch"
)

// GuidedDFS is the shared query engine of every partial index (§3.3, §5):
// a depth-first traversal from s towards t over g where each visited vertex
// v first consults the index via try:
//
//   - try(v, t) = (true, true): v definitely reaches t — a partial index
//     without false positives can terminate the whole query (the §5
//     "immediately terminate" rule).
//   - try(v, t) = (false, true): v definitely cannot reach t — the subtree
//     under v is pruned (the §5 "no false negatives" rule; this is the
//     dominant case on real negative-heavy workloads).
//   - try(v, t) = (_, false): undecided — expand v's successors.
//
// The traversal itself provides ground truth for anything the filter leaves
// undecided, so the combination is exact.
func GuidedDFS(g Adjacency, s, t graph.V, try func(u, t graph.V) (bool, bool)) bool {
	r, _ := CountingGuidedDFS(g, s, t, try)
	return r
}

// CountingGuidedDFS is GuidedDFS that also reports the number of vertices
// it expanded — the E1/E4 "traversal work" and the fallback accounting of
// the instrumented wrapper. Zero means the first probe decided the query.
func CountingGuidedDFS(g Adjacency, s, t graph.V, try func(u, t graph.V) (bool, bool)) (bool, int) {
	if s == t {
		return true, 0
	}
	if r, ok := try(s, t); ok {
		return r, 0
	}
	sc := scratch.Get(g.N())
	defer scratch.Put(sc)
	visited := sc.Visited()
	visited.Set(int(s))
	sc.Queue = append(sc.Queue, s)
	expanded := 0
	for len(sc.Queue) > 0 {
		v := sc.Queue[len(sc.Queue)-1]
		sc.Queue = sc.Queue[:len(sc.Queue)-1]
		expanded++
		for _, w := range g.Succ(v) {
			if w == t {
				return true, expanded
			}
			if visited.Test(int(w)) {
				continue
			}
			visited.Set(int(w))
			if r, ok := try(w, t); ok {
				if r {
					return true, expanded
				}
				continue // pruned: w cannot reach t
			}
			sc.Queue = append(sc.Queue, w)
		}
	}
	return false, expanded
}

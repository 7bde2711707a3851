// Tree-like data with few non-tree edges — the regime the early
// tree-cover extensions target ("dual-labeling and path-tree are designed
// for tree structures e.g., XML databases, and their application to
// graphs works well only if the number of non-tree edges is very low",
// §3.1).
//
// Generates an XML-document-like hierarchy (a deep element tree) with a
// small number of IDREF cross-links, and compares Dual-Labeling and
// Tree+SSPI — the specialists — against GRAIL and PLL as the number of
// cross-links grows. The specialists' constant-time lookups survive only
// while links stay rare; their index sizes blow up quadratically after.
//
//	go run ./examples/xmlhierarchy
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/survey"
	"repro/internal/traversal"
)

func main() {
	const n = 20000
	fmt.Printf("XML-like hierarchy: %d elements; sweeping IDREF cross-link counts\n\n", n)
	fmt.Printf("%-8s %-14s %-12s %-12s %-12s\n", "links", "index", "build", "size", "query")

	for _, extra := range []int{0, 50, 500, 5000} {
		doc := gen.TreePlus(n, extra, 13)
		rng := rand.New(rand.NewSource(17))
		const queries = 2000
		type pair struct{ s, t reach.V }
		ps := make([]pair, queries)
		want := make([]bool, queries)
		for i := range ps {
			ps[i] = pair{reach.V(rng.Intn(n)), reach.V(rng.Intn(n))}
			want[i] = traversal.BFS(doc, ps[i].s, ps[i].t)
		}
		for _, kind := range []reach.Kind{
			survey.KindDualLabel, survey.KindTreeSSPI, reach.KindGRAIL, reach.KindPLL,
		} {
			ix, err := reach.Build(kind, doc, reach.Options{K: 2, Seed: 19})
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			for i, p := range ps {
				if got := ix.Reach(p.s, p.t); got != want[i] {
					log.Fatalf("%s: wrong answer", ix.Name())
				}
			}
			qt := time.Since(start) / queries
			st := ix.Stats()
			fmt.Printf("%-8d %-14s %-12v %-12s %-12v\n",
				extra, ix.Name(), st.BuildTime, size(st.Bytes), qt)
		}
		fmt.Println()
	}
	fmt.Println("shape check (§3.1): the specialists win on pure trees and degrade as")
	fmt.Println("cross-links accumulate; the general techniques stay flat.")
}

func size(b int) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	}
}

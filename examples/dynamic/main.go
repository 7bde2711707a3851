// Dynamic graphs: maintaining reachability indexes under edge insertions
// and deletions — the §5 open challenge. Replays one update script
// against TOL (complete, incremental inserts), DAGGER (partial, widening
// intervals), and DBL (partial, insert-only), cross-checking every answer
// against a freshly rebuilt oracle.
//
//	go run ./examples/dynamic
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	reach "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/survey"
	"repro/internal/tc"
)

func main() {
	const n = 1500
	g := gen.RandomDAG(gen.Config{N: n, M: 4 * n, Seed: 21})
	script := gen.UpdateScript(g, 300, true /* keep it a DAG */, 22)
	fmt.Printf("graph: n=%d m=%d; script: %d updates (mixed insert/delete)\n",
		g.N(), g.M(), len(script))

	indexes := []reach.Kind{reach.KindTOL, survey.KindDAGGER, survey.KindDBL}
	for _, k := range indexes {
		ix, err := survey.BuildDynamic(k, g, reach.Options{K: 2, Bits: 256, Seed: 23})
		if err != nil {
			log.Fatal(err)
		}
		run(ix, g, script)
	}
}

func run(ix survey.DynamicIndex, g0 *reach.Graph, script []gen.UpdateOp) {
	cur := graph.Mutate(g0)
	rng := rand.New(rand.NewSource(31))
	var updTime time.Duration
	applied, skippedDeletes, checked := 0, 0, 0
	for _, op := range script {
		var err error
		start := time.Now()
		if op.Insert {
			err = ix.InsertEdge(op.Edge.From, op.Edge.To)
		} else {
			err = ix.DeleteEdge(op.Edge.From, op.Edge.To)
		}
		elapsed := time.Since(start)
		var unsup *core.Unsupported
		if errors.As(err, &unsup) {
			skippedDeletes++
			continue // insert-only index: the edge stays in the graph
		}
		if err != nil {
			log.Fatalf("%s: %v", ix.Name(), err)
		}
		updTime += elapsed
		applied++
		if op.Insert {
			cur.AddEdge(op.Edge.From, op.Edge.To)
		} else {
			cur.RemoveEdge(op.Edge)
		}
		// Periodic correctness audit against a rebuilt closure.
		if applied%50 != 0 {
			continue
		}
		snapshot := cur.MustFreeze()
		oracle := tc.NewClosure(snapshot)
		for q := 0; q < 300; q++ {
			s := reach.V(rng.Intn(snapshot.N()))
			t := reach.V(rng.Intn(snapshot.N()))
			checked++
			if got, want := ix.Reach(s, t), oracle.Reach(s, t); got != want {
				log.Fatalf("%s: divergence at (%d,%d) after %d updates", ix.Name(), s, t, applied)
			}
		}
		cur = graph.Mutate(snapshot)
	}
	fmt.Printf("%-8s applied=%d updates (%v avg), skipped=%d unsupported deletes, %d audited queries ✓\n",
		ix.Name(), applied, updTime/time.Duration(applied), skippedDeletes, checked)
}

package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
	"unicode"

	reach "repro"
	"repro/internal/advise"
	"repro/internal/core"
)

// runAdvise implements `reachcli advise`: profile a graph and a recorded
// workload, short-list plain index kinds from the survey's taxonomy,
// shadow-build and trace-replay each candidate, and print the pick —
// chosen kind, measured p50/p99, footprint, and the regret against the
// best measured candidate. -json emits the full advise.Report.
func runAdvise(args []string) {
	fs := flag.NewFlagSet("reachcli advise", flag.ExitOnError)
	graphPath := fs.String("graph", "", "graph file (edge-list exchange format)")
	tracePath := fs.String("trace", "", "workload capture written by reachserve -record")
	budget := fs.Int64("budget", 0, "index footprint budget in bytes; 0 = unlimited")
	candidates := fs.String("candidates", "", "comma-separated kind list overriding the rule-table shortlist")
	maxCand := fs.Int("max-candidates", 0, "shortlist cap; 0 = default (5)")
	maxReplay := fs.Int("max-replay", 0, "cap on replayed plain records per candidate; 0 = all")
	timeout := fs.Duration("timeout", 0, "per-candidate build time-box; 0 = default (30s)")
	k := fs.Int("k", 0, "per-technique budget (intervals/sketches/landmarks); 0 = default")
	bits := fs.Int("bits", 0, "Bloom width for DBL and LCR-Bloom; BFL's widths are fixed by its 64-byte record (0 = default)")
	workers := fs.Int("workers", 0, "build worker cap; 0 = GOMAXPROCS")
	jsonOut := fs.Bool("json", false, "emit the full advisor report as JSON")
	fs.Parse(args)
	if *graphPath == "" || *tracePath == "" {
		fmt.Fprintln(os.Stderr, "reachcli advise: need -graph and -trace")
		fs.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		fail("%v", err)
	}
	g, err := reach.ReadGraph(f)
	f.Close()
	if err != nil {
		fail("parse %s: %v", *graphPath, err)
	}
	tf, err := os.Open(*tracePath)
	if err != nil {
		fail("%v", err)
	}
	records, err := reach.ReadWorkload(tf)
	tf.Close()
	if err != nil {
		fail("read trace %s: %v", *tracePath, err)
	}

	opt := reach.Options{K: *k, Bits: *bits, Workers: *workers, Prepared: reach.Prepare(g)}
	kinds := strings.FieldsFunc(*candidates, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })

	rep, err := advise.Run(context.Background(), opt.Prepared, records, advise.Config{
		Build: func(ctx context.Context, kind string) (core.Index, error) {
			return reach.BuildCtx(ctx, reach.Kind(kind), g, opt)
		},
		Candidates:    kinds,
		MaxCandidates: *maxCand,
		BuildTimeout:  *timeout,
		Budget:        *budget,
		MaxReplay:     *maxReplay,
	})
	if err != nil {
		if rep != nil {
			for _, c := range rep.Candidates {
				if !c.Feasible {
					fmt.Fprintf(os.Stderr, "  %s: %s\n", c.Kind, c.Error)
				}
			}
		}
		fail("%v", firstLine(err))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail("encode: %v", err)
		}
		return
	}

	gp, wp := rep.Graph, rep.Workload
	fmt.Printf("graph %s: %d vertices, %d edges", *graphPath, gp.N, gp.M)
	if gp.CyclicMass > 0 {
		fmt.Printf(", %d SCCs (%.0f%% cyclic mass)", gp.SCCs, 100*gp.CyclicMass)
	} else {
		fmt.Printf(", acyclic")
	}
	fmt.Printf(", depth %d, width %d\n", gp.Depth, gp.Width)
	fmt.Printf("trace %s: %d records, %d plain (%.0f%% positive, %.0f%% cached)\n",
		*tracePath, wp.Records, wp.Plain, 100*wp.PositiveShare, 100*wp.CachedShare)
	fmt.Printf("baseline (index-free BFS): p50 %v  p99 %v\n",
		time.Duration(rep.Baseline.P50NS), time.Duration(rep.Baseline.P99NS))

	fmt.Printf("%-10s %10s %12s %10s %10s %8s  %s\n",
		"kind", "build", "bytes", "p50", "p99", "miss", "note")
	for _, c := range rep.Candidates {
		if !c.Feasible {
			fmt.Printf("%-10s %10s %12s %10s %10s %8s  %s\n",
				c.Kind, "-", "-", "-", "-", "-", c.Error)
			continue
		}
		note := c.Reason
		if c.OverBudget {
			note = "OVER BUDGET; " + note
		}
		fmt.Printf("%-10s %10v %12d %10v %10v %8d  %s\n",
			c.Kind, time.Duration(c.BuildNS).Round(time.Microsecond), c.Bytes,
			time.Duration(c.P50NS), time.Duration(c.P99NS), c.Mismatches, note)
	}
	fmt.Printf("chosen %s (p99 %v)", rep.Chosen, time.Duration(rep.ChosenP99NS))
	if rep.Best != "" && rep.Best != rep.Chosen {
		fmt.Printf("; best measured %s (p99 %v)", rep.Best, time.Duration(rep.BestP99NS))
	}
	fmt.Printf("; regret %.2fx\n", rep.Regret)
}

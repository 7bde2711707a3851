package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	reach "repro"
	"repro/internal/advise"
)

// runReplay implements `reachcli replay`: re-run a workload captured by
// `reachserve -record` against a freshly built index (any kind) and
// report, per capture route, how replay latency compares to capture
// latency, plus the replay index's decided rate — the experiment behind
// "would index X have served this traffic better?". The aggregation is
// advise.Replay, the same evaluator the index advisor scores
// candidates with; -json emits its ReplaySummary struct directly.
func runReplay(args []string) {
	fs := flag.NewFlagSet("reachcli replay", flag.ExitOnError)
	graphPath := fs.String("graph", "", "graph file the workload was captured against")
	workloadPath := fs.String("workload", "", "capture file written by reachserve -record")
	indexKind := fs.String("index", "bfl", "plain index kind to replay against")
	lcrKind := fs.String("lcr", "p2h", "LCR index kind for labeled graphs")
	k := fs.Int("k", 0, "per-technique budget; 0 = default")
	bits := fs.Int("bits", 0, "Bloom width for DBL and LCR-Bloom; BFL's widths are fixed by its 64-byte record (0 = default)")
	maxseq := fs.Int("maxseq", 0, "RLC max concatenation length κ; 0 = default")
	workers := fs.Int("workers", 0, "build worker cap; 0 = GOMAXPROCS")
	jsonOut := fs.Bool("json", false, "emit the machine-readable per-route summary as JSON")
	verbose := fs.Bool("v", false, "also print the replay DB's full metrics snapshot (Prometheus text exposition)")
	fs.Parse(args)
	if *graphPath == "" || *workloadPath == "" {
		fmt.Fprintln(os.Stderr, "reachcli replay: need -graph and -workload")
		fs.Usage()
		os.Exit(2)
	}

	wf, err := os.Open(*workloadPath)
	if err != nil {
		fail("%v", err)
	}
	records, err := reach.ReadWorkload(wf)
	wf.Close()
	if err != nil {
		fail("read workload %s: %v", *workloadPath, err)
	}
	if len(records) == 0 {
		fail("workload %s holds no records", *workloadPath)
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

	buildStart := time.Now()
	db, err := reach.NewDB(g, reach.DBConfig{
		Plain:   reach.Kind(*indexKind),
		LCR:     reach.LCRKind(*lcrKind),
		Options: reach.Options{K: *k, Bits: *bits, Workers: *workers, MaxSeq: *maxseq},
		Metrics: true,
	})
	if err != nil {
		fail("build: %v", firstLine(err))
	}
	buildNS := time.Since(buildStart)
	if !*jsonOut {
		fmt.Printf("replaying %d records from %s against index %s (built in %v)\n",
			len(records), *workloadPath, *indexKind, buildNS.Round(time.Millisecond))
	}

	sum := advise.Replay(db, records)

	if *jsonOut {
		out := replayJSON{
			Graph:    *graphPath,
			Workload: *workloadPath,
			Index:    *indexKind,
			BuildNS:  buildNS.Nanoseconds(),
			Summary:  sum,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail("encode: %v", err)
		}
		return
	}

	fmt.Printf("%-16s %8s %12s %12s %9s %10s %7s\n",
		"route", "queries", "capture", "replay", "delta", "mismatch", "errors")
	for _, r := range sum.Routes {
		cap0 := time.Duration(r.CaptureNS / int64(r.Queries))
		rep := time.Duration(r.ReplayNS / int64(r.Queries))
		delta := "n/a"
		if r.CaptureNS > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*float64(r.ReplayNS-r.CaptureNS)/float64(r.CaptureNS))
		}
		fmt.Printf("%-16s %8d %12v %12v %9s %10d %7d\n",
			r.Route, r.Queries, cap0, rep, delta, r.Mismatches, r.Errors)
	}

	// Decided rate of the replay index: the fraction of plain queries it
	// settled without guided traversal (capture-side decided rates live in
	// the capture server's /metrics, not the workload file).
	if snap, ok := db.MetricsSnapshot(); ok {
		for name, ix := range snap.Indexes {
			if ix.Queries > 0 {
				fmt.Printf("replay index %s: decided %.1f%% of %d queries (%d fallbacks)\n",
					name, 100*ix.DecidedRate(), ix.Queries, ix.Fallback)
			}
		}
		if *verbose {
			snap.WriteProm(os.Stdout, "reach")
		}
	}
}

// replayJSON wraps the shared ReplaySummary with the run's provenance
// for `reachcli replay -json`.
type replayJSON struct {
	Graph    string                `json:"graph"`
	Workload string                `json:"workload"`
	Index    string                `json:"index"`
	BuildNS  int64                 `json:"build_ns"`
	Summary  *advise.ReplaySummary `json:"summary"`
}

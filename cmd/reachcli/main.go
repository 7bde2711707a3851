// Command reachcli loads a graph in the edge-list exchange format, builds
// the requested indexes, and answers reachability queries from the command
// line or stdin.
//
// Usage:
//
//	reachcli -graph g.txt -index bfl -q "0 15"           # plain query
//	reachcli -graph g.txt -q "alice bob (knows|likes)*"  # constrained
//	echo "0 1\n0 2" | reachcli -graph g.txt              # batch on stdin
//	reachcli -graph g.txt -json -q "0 15"                # JSON result lines
//	reachcli stats -graph g.txt -index bfl -queries 5000 # observability
//	reachcli replay -graph g.txt -workload w.rec -index pll
//	reachcli advise -graph g.txt -trace w.rec -budget 1000000 -json
//
// Query lines hold "s t" for plain reachability or "s t α" for a
// path-constrained query; vertices may be ids or names from the file.
//
// The stats subcommand builds the index with the observability layer
// enabled, drives a sampled query workload through it, and prints the
// metrics snapshot as the Prometheus text exposition reachserve's /metrics
// serves: per-index positive/negative counts, TryReach decided and
// fallback counts, guided-traversal volume, latency histograms, and
// per-phase build seconds (see OBSERVABILITY.md).
//
// The replay subcommand re-runs a workload captured with `reachserve
// -record` against any index kind and reports per-route latency deltas
// versus the capture plus the replay index's decided rate — the tool for
// asking "would a different index have served this traffic better?".
// With -json it emits the machine-readable per-route summary the index
// advisor's evaluator shares.
//
// The advise subcommand answers that question automatically: it profiles
// the graph and the capture, short-lists index kinds from the survey's
// taxonomy, shadow-builds and replays each within a time-box and an
// optional byte budget, and reports the measured pick (see DESIGN.md,
// "Advisor").
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	reach "repro"
	_ "repro/internal/survey" // -index and -list take every Table 1 kind
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		runStats(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		runReplay(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "advise" {
		runAdvise(os.Args[2:])
		return
	}
	graphPath := flag.String("graph", "", "graph file (edge-list exchange format)")
	indexKind := flag.String("index", "bfl", "plain index kind (see -list)")
	lcrKind := flag.String("lcr", "p2h", "LCR index kind for labeled graphs")
	query := flag.String("q", "", "single query: 's t' or 's t α'; default reads stdin")
	list := flag.Bool("list", false, "list available index kinds and exit")
	stats := flag.Bool("stats", false, "print index statistics")
	k := flag.Int("k", 0, "per-technique budget (intervals/sketches/landmarks); 0 = default")
	bits := flag.Int("bits", 0, "Bloom width for DBL and LCR-Bloom; BFL's widths are fixed by its 64-byte record (0 = default)")
	workers := flag.Int("workers", 0, "build worker cap; 0 = GOMAXPROCS")
	maxseq := flag.Int("maxseq", 0, "RLC max concatenation length κ; 0 = default")
	timeout := flag.Duration("timeout", 0, "abort index construction after this long; 0 = no limit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per query result instead of plain text")
	flag.Parse()

	if *list {
		fmt.Println("plain kinds:")
		for _, k := range reach.Kinds() {
			fmt.Printf("  %s\n", k)
		}
		fmt.Println("lcr kinds:")
		for _, k := range reach.LCRKinds() {
			fmt.Printf("  %s\n", k)
		}
		return
	}
	if *graphPath == "" {
		fail("missing -graph")
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
	fmt.Fprintf(os.Stderr, "loaded %s: %d vertices, %d edges, %d labels\n",
		*graphPath, g.N(), g.M(), g.Labels())

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	db, err := reach.NewDBCtx(ctx, g, reach.DBConfig{
		Plain:   reach.Kind(*indexKind),
		LCR:     reach.LCRKind(*lcrKind),
		Options: reach.Options{K: *k, Bits: *bits, Workers: *workers, MaxSeq: *maxseq},
	})
	if err != nil {
		fail("build: %v", firstLine(err))
	}
	if *stats {
		for name, st := range db.Stats() {
			fmt.Fprintf(os.Stderr, "index %-12s entries=%-10d bytes=%-12d build=%v\n",
				name, st.Entries, st.Bytes, st.BuildTime)
		}
	}

	// emit prints one result. Plain mode writes the historical true/false
	// lines; -json writes one object per query, machine-splittable with
	// line-oriented tools (jq, scripts piping stdin batches).
	emit := func(res queryResult) {
		if *jsonOut {
			b, _ := json.Marshal(res)
			fmt.Println(string(b))
			return
		}
		if res.Error != "" {
			fmt.Printf("error: %s\n", res.Error)
			return
		}
		fmt.Println(*res.Reachable)
	}
	answer := func(line string) {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			emit(queryResult{Query: line, Error: fmt.Sprintf("want 's t' or 's t α', got %q", line)})
			return
		}
		res := queryResult{Query: line, S: fields[0], T: fields[1]}
		s, ok1 := vertex(g, fields[0])
		t, ok2 := vertex(g, fields[1])
		if !ok1 || !ok2 {
			res.Error = fmt.Sprintf("unknown vertex in %q", line)
			emit(res)
			return
		}
		var got bool
		var err error
		if len(fields) == 2 {
			got, err = db.Reach(s, t)
		} else {
			res.Alpha = strings.Join(fields[2:], " ")
			got, err = db.Query(s, t, res.Alpha)
		}
		if err != nil {
			res.Error = firstLine(err)
			emit(res)
			return
		}
		res.Reachable = &got
		emit(res)
	}

	if *query != "" {
		answer(*query)
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		answer(line)
	}
}

// runStats implements `reachcli stats`: build with metrics enabled, run a
// sampled workload, print the DB's metrics as Prometheus text exposition.
func runStats(args []string) {
	fs := flag.NewFlagSet("reachcli stats", flag.ExitOnError)
	graphPath := fs.String("graph", "", "graph file (edge-list exchange format)")
	indexKind := fs.String("index", "bfl", "plain index kind")
	lcrKind := fs.String("lcr", "p2h", "LCR index kind for labeled graphs")
	queries := fs.Int("queries", 2000, "number of sampled queries to drive")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args)
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "reachcli stats: missing -graph")
		fs.Usage()
		os.Exit(2)
	}
	if *queries <= 0 {
		fmt.Fprintln(os.Stderr, "reachcli stats: -queries must be positive")
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
	db, err := reach.NewDB(g, reach.DBConfig{
		Plain:   reach.Kind(*indexKind),
		LCR:     reach.LCRKind(*lcrKind),
		Metrics: true,
	})
	if err != nil {
		fail("build: %v", firstLine(err))
	}

	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < *queries; i++ {
		s := reach.V(rng.Intn(g.N()))
		t := reach.V(rng.Intn(g.N()))
		db.Reach(s, t)
	}
	if g.Labeled() {
		mask := uint64(1)<<uint(g.Labels()) - 1
		for i := 0; i < *queries/4; i++ {
			s := reach.V(rng.Intn(g.N()))
			t := reach.V(rng.Intn(g.N()))
			var labels []reach.Label
			pick := rng.Uint64() & mask
			for l := 0; l < g.Labels(); l++ {
				if pick&(1<<uint(l)) != 0 {
					labels = append(labels, reach.Label(l))
				}
			}
			db.QueryAllowed(s, t, labels...)
		}
	}
	// A "# " line is a comment in the exposition format, so stdout stays
	// one valid Prometheus document.
	fmt.Printf("# graph %s: %d vertices, %d edges, %d labels; %d sampled queries\n",
		*graphPath, g.N(), g.M(), g.Labels(), *queries)
	snap, _ := db.MetricsSnapshot()
	snap.WriteProm(os.Stdout, "reach")
}

// queryResult is one -json output line. Reachable is a pointer so the
// field is present exactly when the query produced an answer; on errors
// the object carries the echoed query and the error instead.
type queryResult struct {
	Query     string `json:"query"`
	S         string `json:"s,omitempty"`
	T         string `json:"t,omitempty"`
	Alpha     string `json:"alpha,omitempty"`
	Reachable *bool  `json:"reachable,omitempty"`
	Error     string `json:"error,omitempty"`
}

func vertex(g *reach.Graph, tok string) (reach.V, bool) {
	if n, err := strconv.ParseUint(tok, 10, 32); err == nil && int(n) < g.N() {
		return reach.V(n), true
	}
	return g.VertexByName(tok)
}

// firstLine trims an error to its first line: the contained-panic errors
// carry the originating stack in their message, which belongs in logs,
// not on a CLI's one-line diagnostic.
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " ..."
	}
	return s
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "reachcli: "+format+"\n", args...)
	os.Exit(1)
}

// Command reachload is the repository's benchmark: a load generator and
// driver that measures reachserve and the reach library end to end and,
// in a second traced run, layer by layer. benchmark/README.md has the
// metric catalogue; BENCHMARK.json at the root is the contract.
//
//	reachload run -bin reachserve -workdir .bench_build \
//	    -workload point-http -seed 1 -seconds 15 -trace 0
//
// One invocation generates its inputs from -seed, spawns the real
// reachserve binary where the workload needs it, measures for -seconds,
// checks answers, prints every metric by name with its unit, and ends its
// standard output with one JSON line. Without -workload it runs every
// workload in turn. The exit code is 0 only if no operation failed.
//
//	reachload spread <dirA> <dirB>
//
// compares the results of two sets of runs; benchmark/aa.sh drives it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	args := os.Args[1:]
	if len(args) == 3 && args[0] == "spread" {
		if !spread(args[1], args[2]) {
			os.Exit(1)
		}
		return
	}
	if len(args) == 1 && args[0] == "keepawake" {
		keepAwakeMain() // the run's own child, see keepawake.go
		return
	}
	if len(args) > 0 && args[0] == "run" {
		args = args[1:]
	}
	fs := flag.NewFlagSet("reachload run", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run; empty runs all of them")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 15, "how long the run measures; BENCHMARK.json's run_seconds")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
	bin := fs.String("bin", "", "the reachserve binary to measure (required)")
	workdir := fs.String("workdir", ".bench_build", "directory for temp files, result files and span dumps")
	fs.Parse(args)

	if *bin == "" || fs.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fs.Usage()
		os.Exit(2)
	}
	todo := workloadList
	if *name != "" {
		todo = nil
		for _, w := range workloadList {
			if w.name == *name {
				todo = []workload{w}
			}
		}
		if todo == nil {
			fmt.Fprintf(os.Stderr, "reachload: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	correct := true
	for _, w := range todo {
		rep, err := runOne(w, *seed, *seconds, *trace == 1, *bin, *workdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reachload: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		correct = correct && rep.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// runOne runs one workload in a temp dir of its own, which is removed
// before it returns along with every child still alive, and prints and
// files the result.
func runOne(w workload, seed uint64, seconds float64, trace bool, bin, workdir string) (*report, error) {
	bin, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	for _, d := range []string{"tmp", "results", "traces"} {
		if err := os.MkdirAll(filepath.Join(workdir, d), 0o755); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(filepath.Join(workdir, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	rc := &runCtx{seed: seed, seconds: seconds, trace: trace, bin: bin, dir: dir, conns: runtime.NumCPU()}
	awake := startKeepAwake()
	cleanup := func() {
		rc.killChildren()
		awake.stop()
		os.RemoveAll(dir)
	}
	defer cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()
	go func() {
		if _, ok := <-sigc; ok {
			cleanup()
			os.Exit(130)
		}
	}()

	rep := &report{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Conns: rc.conns,
		Host:     newHostMeta(awake != nil),
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}, Phases: map[string]phase{},
	}
	if trace {
		rc.rec = newSpanRec(rc.conns + 1)
	}
	if err := w.run(rc, rep); err != nil {
		return nil, err
	}
	if trace {
		if err := runLayers(rc, rep); err != nil {
			return nil, err
		}
		path := filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.csv", w.name, seed))
		kept, dropped, err := rc.rec.writeCSV(path)
		if err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s, %d dropped past the in-memory cap\n", kept, path, dropped)
		rep.EndToEnd = nil
	} else {
		rep.PerLayer = nil
	}
	want, have := endToEnd, rep.EndToEnd
	if trace {
		want, have = perLayer, rep.PerLayer
	}
	for _, m := range want {
		if _, ok := have[m.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	rep.Host.finish()
	rep.Host.ClientCPUs, rep.Host.ServerCPUs = rc.split[0], rc.split[1]
	if !rep.Host.KeepAwake {
		fmt.Println("WARNING: no SCHED_IDLE spinners on this system; idle CPUs were left to halt, expect noisier timings")
	}
	if rep.Host.CalibDrift {
		fmt.Printf("WARNING: calibration loop drifted %.0f -> %.0f ns during the run; do not trust it\n",
			rep.Host.CalibNs, rep.Host.CalibEndNs)
	}
	rep.Faults = rc.faults
	if len(rep.Faults) > 0 && rep.Failed == 0 {
		rep.Failed = 1 // a fault outside any operation (unclean drain, logged error) fails the run too
	}
	rep.Attempted = max(rep.Attempted, 1)
	rep.Correct = rep.Failed == 0

	tflag := 0
	if trace {
		tflag = 1
	}
	file := filepath.Join(workdir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, tflag))
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(file, append(full, '\n'), 0o644); err != nil {
		return nil, err
	}
	rep.print(file)
	return rep, nil
}

// print writes the human-readable summary and, as the last line, the JSON
// object the benchmark contract defines.
func (rep *report) print(file string) {
	metrics := rep.EndToEnd
	if rep.Trace {
		metrics = rep.PerLayer
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if unitOf[n] == "" {
			panic("metric " + n + " is not in the tables of metrics.go")
		}
	}
	fmt.Printf("%s seed=%d seconds=%g trace=%v connections=%d gomaxprocs=%d\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Conns, rep.Host.GoMaxProcs)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]mv, len(names))
	for _, n := range names {
		out[n] = mv{metrics[n], unitOf[n]}
		fmt.Printf("  %-36s %16.4f %s\n", n, metrics[n], unitOf[n])
	}
	fmt.Printf("  attempted=%d failed=%d fail_share=%g  detail: %s\n",
		rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted), file)
	for _, f := range rep.Faults {
		fmt.Printf("  FAULT: %s\n", f)
	}
	last, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, out})
	fmt.Printf("%s\n", last)
}

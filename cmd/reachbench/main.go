// Command reachbench regenerates the paper's evaluation artifacts: the
// Table 1 / Table 2 taxonomies, the Figure 1 worked examples, and the
// E1–E15 claim experiments catalogued in EXPERIMENTS.md. It prints
// formatted tables; nothing it measures is checked in.
//
// Usage:
//
//	reachbench                     # run everything at the default scale
//	reachbench -only table1,e3    # run a subset
//	reachbench -scale 5           # multiply graph sizes by 5
//	reachbench -seed 42           # change the workload seed
//	reachbench -cpuprofile cpu.pb  # write a pprof CPU profile
//	reachbench -memprofile mem.pb  # write a pprof heap profile
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	scale := flag.Int("scale", 1, "size multiplier for experiment graphs")
	seed := flag.Int64("seed", 1, "workload seed")
	only := flag.String("only", "", "comma-separated subset: table1,table2,fig1,e1..e15")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	if flag.NArg() > 0 {
		usageExit("unexpected arguments %q", strings.Join(flag.Args(), " "))
	}
	if *scale < 1 {
		usageExit("-scale must be >= 1, got %d", *scale)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fail("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("memprofile: %v", err)
		}
	}()

	sc := experiments.Scale{Factor: *scale}
	w := os.Stdout

	runners := map[string]func(io.Writer){
		"table1": func(w io.Writer) { experiments.Table1(sc.N(2000), *seed).Write(w) },
		"table2": func(w io.Writer) { experiments.Table2(sc.N(150), 8, *seed).Write(w) },
		"fig1":   func(w io.Writer) { experiments.Fig1(w) },
		"e1":     func(w io.Writer) { experiments.E1(w, sc, *seed) },
		"e2":     func(w io.Writer) { experiments.E2(w, sc, *seed) },
		"e3":     func(w io.Writer) { experiments.E3(w, sc, *seed) },
		"e4":     func(w io.Writer) { experiments.E4(w, sc, *seed) },
		"e5":     func(w io.Writer) { experiments.E5(w, sc, *seed) },
		"e6":     func(w io.Writer) { experiments.E6(w, sc, *seed) },
		"e7":     func(w io.Writer) { experiments.E7(w, sc, *seed) },
		"e8":     func(w io.Writer) { experiments.E8(w, sc, *seed) },
		"e9":     func(w io.Writer) { experiments.E9(w, sc, *seed) },
		"e10":    func(w io.Writer) { experiments.E10(w, sc, *seed) },
		"e11":    func(w io.Writer) { experiments.E11(w, sc, *seed) },
		"e12":    func(w io.Writer) { experiments.E12(w, sc, *seed) },
		"e13":    func(w io.Writer) { experiments.E13(w, sc, *seed) },
		"e14":    func(w io.Writer) { experiments.E14(w, sc, *seed) },
		"e15":    func(w io.Writer) { experiments.E15(w, sc, *seed) },
	}
	order := []string{"table1", "table2", "fig1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15"}

	selected := order
	if *only != "" {
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(strings.ToLower(name))
			if _, ok := runners[name]; !ok {
				usageExit("unknown experiment %q (want one of %s)", name, strings.Join(order, ","))
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		runners[name](w)
	}
}

func usageExit(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "reachbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "reachbench: "+format+"\n", args...)
	os.Exit(1)
}

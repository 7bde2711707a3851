package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	reach "repro"
	"repro/internal/gen"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this run's tables")

// goldenPath holds every cell of Tables 1 and 2 that is not a time, one
// section per table. Widths follow the time strings, so the file holds
// cells, not the padded text.
var goldenPath = filepath.Join("testdata", "tables.golden")

// countCells renders tab's title, header and rows without the time
// columns (Build, Query), cells joined by " | ".
func countCells(tab *Table) string {
	var keep []int
	for i, c := range tab.Columns {
		if c != "Build" && c != "Query" {
			keep = append(keep, i)
		}
	}
	pick := func(row []string) string {
		cells := make([]string, len(keep))
		for j, i := range keep {
			cells[j] = row[i]
		}
		return strings.Join(cells, " | ")
	}
	lines := []string{"== " + tab.Title + " ==", pick(tab.Columns)}
	for _, r := range tab.rows {
		lines = append(lines, pick(r))
	}
	return strings.Join(lines, "\n")
}

// checkGolden compares got with section i of goldenPath (sections are
// separated by a blank line), or rewrites that section under -update.
func checkGolden(t *testing.T, i int, got string) {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil && !*update {
		t.Fatal(err)
	}
	secs := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n\n")
	if *update {
		for len(secs) <= i {
			secs = append(secs, "")
		}
		secs[i] = got
		secs = slices.DeleteFunc(secs, func(s string) bool { return s == "" })
		if err := os.WriteFile(goldenPath, []byte(strings.Join(secs, "\n\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if i >= len(secs) || secs[i] != got {
		t.Errorf("%s section %d differs from this run (go test -update rewrites it; name the moved rows in CHANGES.md):\n%s", goldenPath, i, got)
	}
}

func TestTable1RunsAndCoversAllKinds(t *testing.T) {
	var buf bytes.Buffer
	tab := Table1(300, 1)
	tab.Write(&buf)
	checkGolden(t, 0, countCells(tab))
	out := buf.String()
	for _, k := range reach.Kinds() {
		ix, err := reach.Build(k, reach.Fig1Plain(), reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, ix.Name()) {
			t.Errorf("Table 1 output missing %s", ix.Name())
		}
	}
}

func TestTable2Runs(t *testing.T) {
	var buf bytes.Buffer
	tab := Table2(100, 4, 1)
	tab.Write(&buf)
	checkGolden(t, 1, countCells(tab))
	out := buf.String()
	for _, want := range []string{"P2H+", "Landmark", "Zou-GTC", "DLCR", "Jin-Tree", "Chen-Decomp", "RLC"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %s", want)
		}
	}
}

func TestFig1ClaimsHold(t *testing.T) {
	var buf bytes.Buffer
	// Fig1 panics on any claim mismatch.
	Fig1(&buf)
	if !strings.Contains(buf.String(), "worked examples") {
		t.Error("missing header")
	}
}

func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments smoke is not short")
	}
	sc := Scale{Factor: 1}
	var buf bytes.Buffer
	// Run each experiment at the smallest scale; they panic on any wrong
	// query answer, so this doubles as an integration test.
	E1(&buf, Scale{Factor: 0}, 1) // Factor<=0 clamps to 1
	E2(&buf, sc, 1)
	E3(&buf, sc, 1)
	E4(&buf, sc, 1)
	E5(&buf, sc, 1)
	E6(&buf, sc, 1)
	E7(&buf, sc, 1)
	E8(&buf, sc, 1)
	E9(&buf, sc, 1)
	E10(&buf, sc, 1)
	E11(&buf, sc, 1)
	E12(&buf, sc, 1)
	E13(&buf, sc, 1)
	E14(&buf, sc, 1)
	E15(&buf, sc, 1)
	out := buf.String()
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11a", "E11b", "E12", "E13", "E15"} {
		if !strings.Contains(out, id+" —") {
			t.Errorf("missing %s header", id)
		}
	}
	// E12's probe-level table and build-phase spans must materialize.
	for _, want := range []string{"decided", "bfl/filters-out", "scc/condense"} {
		if !strings.Contains(out, want) {
			t.Errorf("E12 output missing %q", want)
		}
	}
	// E13's scaling table and pooled-vs-unpooled allocation rows.
	for _, want := range []string{"GOMAXPROCS", "speedup@4", "BFS (pooled)", "BFS (unpooled)"} {
		if !strings.Contains(out, want) {
			t.Errorf("E13 output missing %q", want)
		}
	}
	// E14's three acceleration layers: batch kernel, result cache,
	// shared condensation.
	for _, want := range []string{"bit-parallel kernel", "hit rate", "memo hits = 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("E14 output missing %q", want)
		}
	}
	// E11b's table has both rows, and E15 has a row per graph shape.
	for _, want := range []string{"RPQ index", "product search", "scalefree", "banded"} {
		if !strings.Contains(out, want) {
			t.Errorf("E11/E15 output missing %q", want)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := NewTable("demo", "a", "bb")
	tab.Row(1, "x")
	tab.Row("longer", 3.14159)
	var buf bytes.Buffer
	tab.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "3.14") {
		t.Errorf("bad table output:\n%s", out)
	}
}

// countingIndex answers every query true, but false on its wrongAt-th
// call (counting from 1; 0 never), and counts its calls.
type countingIndex struct {
	calls, wrongAt int
}

func (c *countingIndex) Name() string { return "counting" }
func (c *countingIndex) Reach(s, t reach.V) bool {
	c.calls++
	return c.calls != c.wrongAt
}
func (c *countingIndex) Stats() reach.Stats { return reach.Stats{} }

// TestMeasureQueryTimeRunsEveryPass: measureQueryTime asks every query
// the same number of times, reps, in the untimed pass and in each timed
// pass, and repeats a list this short more than once (it lasts far less
// than minPass). A wrong answer panics in the untimed pass, and queryPass
// checks every answer of every repetition, the last one of the last
// repetition too.
func TestMeasureQueryTimeRunsEveryPass(t *testing.T) {
	qs := []gen.Query{{S: 1, T: 0, Want: true}, {S: 2, T: 0, Want: true}, {S: 3, T: 1, Want: true}}
	ix := &countingIndex{}
	measureQueryTime(ix, qs)
	perRep := (1 + timedPasses) * len(qs)
	if ix.calls%perRep != 0 || ix.calls/perRep < 2 {
		t.Errorf("measureQueryTime asked %d queries, want reps × %d (1 + %d passes of %d) with reps > 1", ix.calls, perRep, timedPasses, len(qs))
	}
	const reps = 4
	ix = &countingIndex{}
	queryPass(ix, qs, reps)
	if want := reps * len(qs); ix.calls != want {
		t.Errorf("queryPass asked %d queries, want %d (%d repetitions of %d)", ix.calls, want, reps, len(qs))
	}
	mustPanic := func(at int, run func(ix reach.Index)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("a wrong answer at call %d did not panic", at)
			}
		}()
		run(&countingIndex{wrongAt: at})
	}
	mustPanic(1, func(ix reach.Index) { measureQueryTime(ix, qs) })
	for _, at := range []int{len(qs) + 1, reps * len(qs)} {
		mustPanic(at, func(ix reach.Index) { queryPass(ix, qs, reps) })
	}
}

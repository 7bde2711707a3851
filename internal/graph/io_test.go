package graph

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// writtenList returns a numeric edge list of about m edges as Write
// produces it, header included.
func writtenList(t *testing.T, m int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m)))
	b := NewBuilder(m / 4)
	for i := 0; i < m; i++ {
		b.AddEdge(V(rng.Intn(m/4)), V(rng.Intn(m/4)))
	}
	var buf bytes.Buffer
	if err := Write(&buf, b.MustFreeze()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadAllocsDoNotGrowWithLines pins the reader's per-line cost at zero
// allocations: ten times the lines, the same allocation count (+4 slack).
// A string and a field slice per line would add 2·10⁵ and more.
func TestReadAllocsDoNotGrowWithLines(t *testing.T) {
	count := func(m int) float64 {
		in := writtenList(t, m)
		return testing.AllocsPerRun(2, func() {
			if _, err := Read(bytes.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := count(2e4), count(2e5)
	t.Logf("allocs: %.0f at m=2e4, %.0f at m=2e5", small, large)
	if large > small+4 {
		t.Fatalf("Read makes %.0f allocations at m=2e5 and %.0f at m=2e4: the per-line cost is not zero", large, small)
	}
}

// TestReadReservesOnlyWhatTheInputHolds: a header may announce any edge
// count, but the reservation is capped by what the input's size can hold,
// so a 41-byte input claiming DefaultLimits.MaxEdges edges (1.6 GB of
// them) allocates almost nothing.
func TestReadReservesOnlyWhatTheInputHolds(t *testing.T) {
	in := "# vertices=2 edges=134217728 labels=0\n0 1"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Read(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err != nil || g.M() != 1 {
		t.Fatalf("Read = %v, %v; want one edge", g, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Read of a 41-byte input allocated %d bytes, want < 1 MiB", got)
	}
}

// TestReadOverlongLineNamesItsLine: a line past the scanner's 1 MiB limit
// is reported with its line number, and still matches bufio.ErrTooLong.
func TestReadOverlongLineNamesItsLine(t *testing.T) {
	in := "0 1\n1 2\n" + strings.Repeat("7", 1<<20+1) + " 0\n"
	_, err := Read(strings.NewReader(in))
	if err == nil || !strings.HasPrefix(err.Error(), "graph: line 3: ") {
		t.Fatalf("Read err = %v, want a \"graph: line 3: \" prefix", err)
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("Read err = %v, want errors.Is bufio.ErrTooLong", err)
	}
}

// TestReadLimits: oversized inputs fail with errors, not allocation
// blow-ups or panics.
func TestReadLimits(t *testing.T) {
	lim := Limits{MaxVertices: 100, MaxEdges: 4}
	if _, err := ReadLimited(strings.NewReader("0 4294967295\n"), lim); err == nil {
		t.Error("oversized vertex id accepted")
	}
	if _, err := ReadLimited(strings.NewReader("0 1\n1 2\n2 3\n3 4\n4 5\n"), lim); err == nil {
		t.Error("oversized edge count accepted")
	}
	if _, err := ReadLimited(strings.NewReader("0 1 a b c\n"), lim); err == nil {
		t.Error("malformed line accepted")
	}
	g, err := ReadLimited(strings.NewReader("0 1\n1 2\n"), lim)
	if err != nil || g.N() != 3 {
		t.Errorf("well-formed graph rejected: %v, %v", g, err)
	}
}

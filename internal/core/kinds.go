package core

import (
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scc"
)

// The survey's Tables 1 and 2 as data, one row per technique. The root
// registers the Table 1 rows it serves from init and internal/survey the
// rest, so a program links only the techniques it imports.

// BuildArgs is what a builder gets: its graph, the caller's tunables and
// the build's cancellation check. G is the condensation's DAG for a row
// that lifts (Cond is then the condensation), the caller's graph otherwise.
type BuildArgs struct {
	G       *graph.Digraph
	Cond    *scc.Condensation
	K, Bits int
	Seed    int64
	Workers int // as the caller gave it: 0 selects GOMAXPROCS
	Spans   *obs.Spans
	Check   *Check
}

// PlainKind is one row of Table 1: the kind callers name, the Name() its
// index reports and the survey's taxonomy columns (Input is "DAG" or
// "General").
type PlainKind struct {
	Kind, Name                string
	Framework, Input, Dynamic string
	// Serves marks the kinds a server may be asked for: the ones the
	// advisor can nominate.
	Serves bool
	// Lift builds over the SCC condensation's DAG (§3.1), not the graph.
	Lift bool
	// Parallel builders have a parallel phase: their "index/build" span
	// records the resolved worker count.
	Parallel bool
	// Snapshot is the format SaveIndex writes for the kind ("" if none).
	Snapshot string
	Build    func(a BuildArgs) Index
}

// LCRKind is one row of Table 2, with Table 1's columns.
type LCRKind struct {
	Kind, Name                string
	Framework, Input, Dynamic string
	Build                     func(a BuildArgs) LCRIndex
}

var plainKinds = map[string]PlainKind{}

// LCRKinds is Table 2 in the survey's order, set by the root's init.
var LCRKinds []LCRKind

// RegisterPlain adds rows to Table 1. Registering a kind twice panics.
func RegisterPlain(rows ...PlainKind) {
	for _, r := range rows {
		if _, dup := plainKinds[r.Kind]; dup {
			panic("core: plain kind " + r.Kind + " registered twice")
		}
		plainKinds[r.Kind] = r
	}
}

// Plain returns the Table 1 row of kind; ok is false when no package the
// program links registered it.
func Plain(kind string) (row PlainKind, ok bool) {
	row, ok = plainKinds[kind]
	return row, ok
}

// PlainKinds returns every registered Table 1 row, sorted by kind.
func PlainKinds() []PlainKind {
	rows := make([]PlainKind, 0, len(plainKinds))
	for _, r := range plainKinds {
		rows = append(rows, r)
	}
	slices.SortFunc(rows, func(a, b PlainKind) int { return strings.Compare(a.Kind, b.Kind) })
	return rows
}

// KindsWhere returns the kinds of the registered Table 1 rows keep
// accepts, sorted.
func KindsWhere(keep func(PlainKind) bool) []string {
	var ks []string
	for _, r := range PlainKinds() {
		if keep(r) {
			ks = append(ks, r.Kind)
		}
	}
	return ks
}

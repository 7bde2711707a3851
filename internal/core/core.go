// Package core defines the contracts shared by every reachability index in
// this repository and the framework glue the paper's taxonomy (Tables 1–2)
// is generated from: the Index/Dynamic/Partial interfaces, per-index
// statistics, the SCC-condensation adapter that lifts DAG-only indexes to
// general graphs (§3.1, "From cyclic graphs to DAGs"), the guided-traversal
// engine used by every partial index (§3.3/§5), and a build registry.
package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/labelset"
)

// Stats describes an index's footprint, reported by the Table 1/2 harness.
type Stats struct {
	// Entries counts the index's logical units: intervals for the
	// tree-cover family, hop-label entries for the 2-hop family, sketch
	// slots for approximate TCs.
	Entries int
	// Bytes estimates resident index size.
	Bytes int
	// BuildTime is the wall-clock construction time.
	BuildTime time.Duration
}

// SizeBreakdown splits an index's resident bytes by role: CSR offset
// tables, label payloads, and everything else (ranks, intervals,
// condensation maps). The obs layer exports it so where an index spends
// its bytes is observable, not just benchmarked.
type SizeBreakdown struct {
	Offsets int
	Labels  int
	Aux     int
}

// Total is Offsets + Labels + Aux.
func (b SizeBreakdown) Total() int { return b.Offsets + b.Labels + b.Aux }

// Sized is implemented by indexes that can split their footprint.
type Sized interface {
	Sizes() SizeBreakdown
}

// SizesOf reports the size breakdown of ix, unwrapping instrumentation
// and condensation adapters (adapter overhead — the component map — is
// charged to Aux). The second result is false for indexes that don't
// break their footprint down.
func SizesOf(ix Index) (SizeBreakdown, bool) {
	aux := 0
	for ix != nil {
		if s, ok := ix.(Sized); ok {
			b := s.Sizes()
			b.Aux += aux
			return b, true
		}
		if c, ok := ix.(*condensed); ok {
			aux += len(c.cond.Comp) * 4
			ix = c.inner
			continue
		}
		if iw, ok := ix.(interface{ Inner() Index }); ok {
			ix = iw.Inner()
			continue
		}
		break
	}
	return SizeBreakdown{}, false
}

// IsCondensed reports whether ix answers through the SCC-condensation
// adapter (its inner index is over the component DAG, not the original
// graph). Snapshot code uses it to refuse persisting condensation-lifted
// labels under a format that re-binds to the original graph.
func IsCondensed(ix Index) bool {
	for ix != nil {
		if _, ok := ix.(*condensed); ok {
			return true
		}
		iw, ok := ix.(interface{ Inner() Index })
		if !ok {
			return false
		}
		ix = iw.Inner()
	}
	return false
}

// Index is a plain reachability index: Reach answers Qr(s, t).
//
// Complete indexes answer from index lookups alone; partial indexes run
// index-guided traversal internally (they additionally implement Partial).
// Reach(s, s) is always true.
type Index interface {
	// Name identifies the technique, matching the paper's Table 1 naming.
	Name() string
	Reach(s, t graph.V) bool
	Stats() Stats
}

// Partial is implemented by partial indexes (GRAIL, Ferrari, IP, BFL,
// O'Reach, PReaCH, Feline, GRIPP, SSPI, DBL): TryReach gives the
// lookup-only answer.
type Partial interface {
	Index
	// TryReach returns (answer, true) when the index alone decides the
	// query, and (_, false) when guided traversal would be needed.
	TryReach(s, t graph.V) (reachable, decided bool)
}

// Dynamic is implemented by indexes supporting online edge updates
// (TOL, DAGGER, DLCR; DBL insert-only — its DeleteEdge returns
// ErrUnsupported).
type Dynamic interface {
	Index
	InsertEdge(u, v graph.V) error
	DeleteEdge(u, v graph.V) error
}

// LCRIndex answers alternation-constrained (label-constrained) queries of
// §4.1: is there an s-t path using only labels in allowed?
type LCRIndex interface {
	Name() string
	ReachLC(s, t graph.V, allowed labelset.Set) bool
	Stats() Stats
}

// DynamicLCR is an LCRIndex supporting labeled-edge updates (DLCR).
type DynamicLCR interface {
	LCRIndex
	InsertEdge(u, v graph.V, l graph.Label) error
	DeleteEdge(u, v graph.V, l graph.Label) error
}

// RLCIndex answers concatenation-constrained queries of §4.2: is there an
// s-t path spelling (seq)^k, k >= 1? (k = 0, i.e. the Kleene-star empty
// word, is the caller's s == t short-circuit.)
type RLCIndex interface {
	Name() string
	ReachRLC(s, t graph.V, seq []graph.Label) bool
	Stats() Stats
}

// Unsupported is the error type for operations an index does not support
// (e.g. deletions on the insert-only DBL).
type Unsupported struct{ Op, Index string }

func (u *Unsupported) Error() string {
	return u.Index + ": " + u.Op + " is not supported"
}

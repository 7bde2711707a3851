// Package advise implements the workload-adaptive index advisor: given a
// graph and a recorded query trace, it profiles both, short-lists index
// kinds from a rule table distilled from the survey's taxonomy (which
// index wins depends on graph shape, query mix, and budget — §6), then
// measures every short-listed candidate for real — a time-boxed build
// plus a trace replay — and picks by measured p99, not by rule alone.
// The rules only prune the search space; measurement decides.
//
// The package is deliberately below the root: it speaks core.Index and
// workload.Record, and its caller injects the actual builder
// (reach.BuildCtx) as a BuildFunc, the same inversion internal/shard
// uses. It runs offline, over a capture: `reachcli advise` calls Run, and
// a server then serves the pick with `reachserve -index <kind>`, so no
// serving binary links it.
package advise

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// BuildFunc builds one plain index kind over the advisor's graph. Callers
// supply reach.BuildCtx closed over the graph and its PreparedGraph memo,
// so every candidate build shares one condensation.
type BuildFunc func(ctx context.Context, kind string) (core.Index, error)

// Config parameterizes one advisor run.
type Config struct {
	// Build constructs a candidate index by kind name. Required.
	Build BuildFunc
	// Candidates overrides the rule-table shortlist with an explicit kind
	// list (used by benchmarks to measure the full field, and by
	// operators who want to restrict the search).
	Candidates []string
	// MaxCandidates caps the rule-table shortlist. Default 5.
	MaxCandidates int
	// BuildTimeout time-boxes each candidate build; a candidate that
	// cannot build in time is reported infeasible rather than failing the
	// run. Default 30s.
	BuildTimeout time.Duration
	// Budget, when > 0, is the index footprint budget in bytes.
	// Candidates over budget still get measured but are not eligible to
	// be chosen unless nothing fits.
	Budget int64
	// MaxReplay caps the plain records replayed per candidate (0 = all).
	MaxReplay int
}

// replayReps is how many times each replayed query runs per latency
// sample: the per-record latency is the mean of replayReps runs, damping
// clock granularity on sub-microsecond index probes.
const replayReps = 8

// Report is the advisor's full output, JSON-shaped for `reachcli advise
// -json`.
type Report struct {
	Graph    GraphProfile    `json:"graph"`
	Workload WorkloadProfile `json:"workload"`
	// Baseline is the index-free replay (plain BFS per query): the cost
	// of serving the trace with no index at all.
	Baseline    Measurement `json:"baseline"`
	BudgetBytes int64       `json:"budget_bytes,omitempty"`
	Candidates  []Candidate `json:"candidates"`
	// Chosen is the advisor's pick: lowest replayed p99 among feasible,
	// in-budget candidates (footprint breaks near-ties).
	Chosen      string  `json:"chosen"`
	ChosenP50NS int64   `json:"chosen_p50_ns"`
	ChosenP99NS int64   `json:"chosen_p99_ns"`
	Best        string  `json:"best"`
	BestP99NS   int64   `json:"best_p99_ns"`
	Regret      float64 `json:"regret"` // ChosenP99NS / BestP99NS; 1.0 = optimal among measured
}

// ErrNoTrace is returned when the trace has no scorable plain records
// (everything was cached, labeled, or out of range).
var ErrNoTrace = errors.New("advise: trace has no uncached plain records to score")

// ErrNoCandidate is returned when no candidate could be measured —
// every build failed or timed out. The report still carries the
// per-candidate errors for diagnosis.
var ErrNoCandidate = errors.New("advise: no feasible candidate")

// Run executes the advisor: profile graph and trace, shortlist, measure
// every candidate plus the index-free baseline, and choose.
func Run(ctx context.Context, prep *core.Prepared, recs []workload.Record, cfg Config) (*Report, error) {
	if cfg.Build == nil {
		return nil, errors.New("advise: Config.Build is required")
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = 5
	}
	if cfg.BuildTimeout <= 0 {
		cfg.BuildTimeout = 30 * time.Second
	}
	g := prep.Graph()
	rep := &Report{
		Graph:       ProfileGraph(prep),
		Workload:    ProfileWorkload(recs, g.N()),
		BudgetBytes: cfg.Budget,
	}
	pairs := PlainPairs(recs, g.N(), cfg.MaxReplay)
	if len(pairs) == 0 {
		return rep, ErrNoTrace
	}
	var shortlist []Candidate
	if len(cfg.Candidates) > 0 {
		for _, k := range cfg.Candidates {
			shortlist = append(shortlist, Candidate{Kind: k, Reason: "explicit candidate list"})
		}
	} else {
		shortlist = Shortlist(rep.Graph, rep.Workload, cfg.MaxCandidates)
	}
	rep.Baseline = measureBaseline(g, pairs, 1)
	evaluate(ctx, rep, shortlist, pairs, cfg)
	if rep.Chosen == "" {
		return rep, ErrNoCandidate
	}
	return rep, nil
}

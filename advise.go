package reach

import (
	"context"
	"fmt"
	"time"

	"repro/internal/advise"
	"repro/internal/core"
)

// Advisor re-exports. The advisor profiles a graph and a recorded
// workload, short-lists plain index kinds from the survey's taxonomy,
// shadow-builds and trace-replays each, and picks by measured p99 —
// see internal/advise and DESIGN.md ("Advisor").
type (
	// AdvisorReport is the advisor's full output: graph and workload
	// profiles, the index-free baseline, every measured candidate, and
	// the chosen/best/regret verdict. JSON-shaped for `reachcli advise
	// -json`.
	AdvisorReport = advise.Report
	// ReplaySummary is the machine-readable result of replaying a
	// capture against a DB (`reachcli replay -json`).
	ReplaySummary = advise.ReplaySummary
)

// AdviseConfig parameterizes one Advise run.
type AdviseConfig struct {
	// Budget, when > 0, is the index footprint budget in bytes:
	// over-budget candidates are measured but not chosen unless nothing
	// fits.
	Budget int64
	// BuildTimeout time-boxes each candidate build (default 30s); a
	// candidate that cannot build in time is reported infeasible.
	BuildTimeout time.Duration
	// MaxCandidates caps the rule-table shortlist (default 5).
	MaxCandidates int
	// MaxReplay caps the plain records replayed per candidate (0 = all).
	MaxReplay int
	// Candidates overrides the rule-table shortlist with an explicit
	// kind list.
	Candidates []Kind
	// Options passes the per-technique build tunables through to every
	// candidate build.
	Options Options
}

// Advise profiles g and the recorded trace, measures the short-listed
// candidate kinds (time-boxed build + replay of the trace's uncached
// plain records), and reports the pick. All candidate builds share one
// preprocessing memo (Options.Prepared, created if absent).
func Advise(ctx context.Context, g *Graph, recs []WorkloadRecord, cfg AdviseConfig) (*AdvisorReport, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadOptions)
	}
	opt := cfg.Options
	if opt.Prepared == nil {
		opt.Prepared = Prepare(g)
	}
	var kinds []string
	for _, k := range cfg.Candidates {
		kinds = append(kinds, string(k))
	}
	return advise.Run(ctx, opt.Prepared, recs, advise.Config{
		Build: func(ctx context.Context, kind string) (core.Index, error) {
			return BuildCtx(ctx, Kind(kind), g, opt)
		},
		Candidates:    kinds,
		MaxCandidates: cfg.MaxCandidates,
		BuildTimeout:  cfg.BuildTimeout,
		Budget:        cfg.Budget,
		MaxReplay:     cfg.MaxReplay,
	})
}

// ReplayWorkload re-runs a recorded trace against db, aggregating
// capture-vs-replay latency, mismatches, and errors per route — the
// struct behind `reachcli replay -json`.
func ReplayWorkload(db *DB, recs []WorkloadRecord) *ReplaySummary {
	return advise.Replay(db, recs)
}

package obs

import "sync"

// AdvisorMetrics accumulates the auto-tuning advisor's signals: how
// often the background evaluation ran, what it built, and whether the
// serving plain index was hot-swapped (see OBSERVABILITY.md, "Advisor
// counters").
type AdvisorMetrics struct {
	Evaluations     Counter // background advisor evaluations completed
	CandidatesBuilt Counter // candidate indexes shadow-built across evaluations
	BuildFailures   Counter // candidate builds that failed or timed out
	Swaps           Counter // serving-index hot swaps published
	SwapsSkipped    Counter // evaluations whose pick missed the improvement margin
	Failures        Counter // evaluations aborted by error or contained panic

	TraceRecords Gauge // plain-query samples currently in the advisor's ring
	// LastImprovementPermille is the last evaluation's measured p99 delta
	// vs the serving index, in permille (positive = the pick was faster);
	// it updates whether or not the swap happened.
	LastImprovementPermille Gauge

	mu          sync.Mutex
	currentKind string
	initialKind string
}

// SetKinds records the serving kind (updated at every swap) and, first
// time around, the initial kind.
func (m *AdvisorMetrics) SetKinds(current, initial string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.currentKind = current
	if m.initialKind == "" {
		m.initialKind = initial
	}
}

// AdvisorSnapshot is a point-in-time view of AdvisorMetrics.
type AdvisorSnapshot struct {
	CurrentKind string `json:"current_kind"`
	InitialKind string `json:"initial_kind"`

	Evaluations     int64 `json:"evaluations"`
	CandidatesBuilt int64 `json:"candidates_built"`
	BuildFailures   int64 `json:"build_failures,omitempty"`
	Swaps           int64 `json:"swaps"`
	SwapsSkipped    int64 `json:"swaps_skipped"`
	Failures        int64 `json:"failures,omitempty"`

	TraceRecords            int64 `json:"trace_records"`
	LastImprovementPermille int64 `json:"last_improvement_permille"`
}

// Snapshot captures the current values.
func (m *AdvisorMetrics) Snapshot() AdvisorSnapshot {
	m.mu.Lock()
	current, initial := m.currentKind, m.initialKind
	m.mu.Unlock()
	return AdvisorSnapshot{
		CurrentKind:             current,
		InitialKind:             initial,
		Evaluations:             m.Evaluations.Load(),
		CandidatesBuilt:         m.CandidatesBuilt.Load(),
		BuildFailures:           m.BuildFailures.Load(),
		Swaps:                   m.Swaps.Load(),
		SwapsSkipped:            m.SwapsSkipped.Load(),
		Failures:                m.Failures.Load(),
		TraceRecords:            m.TraceRecords.Load(),
		LastImprovementPermille: m.LastImprovementPermille.Load(),
	}
}

// SetAdvisor installs the auto-tuner's metrics cell; every later
// Snapshot carries its point-in-time view. Nil (the default) omits the
// advisor section entirely.
func (m *DBMetrics) SetAdvisor(am *AdvisorMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advisor = am
}

// writeProm renders the reach_advisor_* families for WriteProm.
func (s *AdvisorSnapshot) writeProm(p *promWriter) {
	p.int(p.family("advisor_evaluations_total", "Background advisor evaluations completed.", "counter"), s.Evaluations)
	p.int(p.family("advisor_candidates_built_total", "Candidate indexes shadow-built by the advisor.", "counter"), s.CandidatesBuilt)
	p.int(p.family("advisor_build_failures_total", "Advisor candidate builds that failed or timed out.", "counter"), s.BuildFailures)
	p.int(p.family("advisor_swaps_total", "Serving plain-index hot swaps published by the advisor.", "counter"), s.Swaps)
	p.int(p.family("advisor_swaps_skipped_total", "Advisor evaluations whose pick missed the improvement margin.", "counter"), s.SwapsSkipped)
	p.int(p.family("advisor_failures_total", "Advisor evaluations aborted by error or contained panic.", "counter"), s.Failures)
	p.int(p.family("advisor_trace_records", "Plain-query samples in the advisor's in-memory ring.", "gauge"), s.TraceRecords)
	p.int(p.family("advisor_last_improvement_permille", "Last evaluation's measured p99 improvement vs the serving index, in permille.", "gauge"), s.LastImprovementPermille)
	f := p.family("advisor_serving_kind", "1 for the currently serving plain index kind.", "gauge")
	if s.CurrentKind != "" {
		p.int(f, 1, "kind", s.CurrentKind)
	}
}

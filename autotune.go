package reach

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advise"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// AutoTuneConfig enables the workload-adaptive auto-tuner
// (DBConfig.AutoTune): the DB samples its own plain-query traffic into
// an in-memory ring, and a background loop periodically runs the index
// advisor over the sample — shortlist, shadow-build, trace-replay — and
// hot-swaps the serving plain index when the pick's measured p99 beats
// the current index by the margin. The swap is one publish of the DB's
// serving snapshot (serving.go); in-flight queries pin the snapshot they
// started on, so no request ever fails because of a swap.
type AutoTuneConfig struct {
	// CheckInterval is how often the background loop evaluates. Default
	// 30s.
	CheckInterval time.Duration
	// MinImprovement is the fractional p99 improvement the pick must
	// show over the serving index to be swapped in (0.10 = 10% faster).
	// Default 0.10.
	MinImprovement float64
	// MinSamples is the least plain-query samples the ring must hold
	// before an evaluation runs. Default 128.
	MinSamples int
	// SampleWindow is the ring's capacity: the most recent samples kept.
	// Default 4096.
	SampleWindow int
	// Budget, when > 0, caps candidate footprints in bytes (over-budget
	// candidates are measured but not chosen unless nothing fits).
	Budget int64
	// BuildTimeout time-boxes each candidate's shadow build. Default 30s.
	BuildTimeout time.Duration
	// MaxCandidates caps the rule-table shortlist. Default 5.
	MaxCandidates int
	// Candidates overrides the rule-table shortlist with an explicit
	// kind list.
	Candidates []Kind
}

// checkAutoTuneConfig validates DBConfig.AutoTune against the rest of
// the configuration.
func checkAutoTuneConfig(cfg DBConfig) error {
	at := cfg.AutoTune
	if at == nil {
		return nil
	}
	switch {
	case at.MinImprovement < 0:
		return fmt.Errorf("%w: AutoTune.MinImprovement must be >= 0, got %v", ErrBadOptions, at.MinImprovement)
	case at.MinSamples < 0 || at.SampleWindow < 0 || at.Budget < 0:
		return fmt.Errorf("%w: negative AutoTune sizes", ErrBadOptions)
	case at.CheckInterval < 0 || at.BuildTimeout < 0:
		return fmt.Errorf("%w: negative AutoTune intervals", ErrBadOptions)
	}
	for _, k := range at.Candidates {
		if !slices.Contains(Kinds(), k) {
			return fmt.Errorf("%w: unknown AutoTune candidate kind %q", ErrBadOptions, k)
		}
	}
	return nil
}

// autoTuner is the background auto-tuning engine, a producer of the DB's
// serving snapshot. It reuses the mutate reindexer's containment pattern:
// the evaluation goroutine recovers panics (core.Recover) and failures
// only count a metric and wait for the next tick.
type autoTuner struct {
	db   *DB
	cfg  AutoTuneConfig
	opt  Options // shadow-build options: Spans stripped, Prepared set per evaluation
	m    *obs.AdvisorMetrics
	reps int

	mu   sync.Mutex
	ring []workload.Record // most recent plain uncached query samples
	next int               // ring write cursor

	report atomic.Pointer[AdvisorReport] // last completed evaluation

	cancel  context.CancelFunc
	runCtx  context.Context
	done    chan struct{}
	closing sync.Once
}

// initAutoTune wires the auto-tuner into a freshly built DB: defaults,
// metrics, and the background loop.
func (db *DB) initAutoTune(cfg DBConfig) {
	at := &autoTuner{db: db, cfg: *cfg.AutoTune, m: &obs.AdvisorMetrics{}, reps: 8}
	if at.cfg.CheckInterval <= 0 {
		at.cfg.CheckInterval = 30 * time.Second
	}
	if at.cfg.MinImprovement == 0 {
		at.cfg.MinImprovement = 0.10
	}
	if at.cfg.MinSamples <= 0 {
		at.cfg.MinSamples = 128
	}
	if at.cfg.SampleWindow <= 0 {
		at.cfg.SampleWindow = 4096
	}
	if at.cfg.SampleWindow < at.cfg.MinSamples {
		at.cfg.SampleWindow = at.cfg.MinSamples
	}
	if at.cfg.BuildTimeout <= 0 {
		at.cfg.BuildTimeout = 30 * time.Second
	}
	// Shadow builds share the serving snapshot's preprocessing memo but
	// not the DB's span sink: the advisor's background builds must not
	// splice phantom phases into the DB's build timeline.
	at.opt = cfg.Options
	at.opt.Spans = nil
	k := string(db.cur.Load().kind)
	at.m.SetKinds(k, k)
	if db.metrics != nil {
		db.metrics.SetAdvisor(at.m)
	}
	at.runCtx, at.cancel = context.WithCancel(context.Background())
	at.done = make(chan struct{})
	db.aut = at
	go at.run()
}

// observe feeds one plain uncached query sample into the ring. Called
// from the query path via db.record: one short mutex hold, no
// allocation after the ring warms up.
func (at *autoTuner) observe(rec workload.Record) {
	at.mu.Lock()
	if len(at.ring) < at.cfg.SampleWindow {
		at.ring = append(at.ring, rec)
	} else {
		at.ring[at.next] = rec
		at.next = (at.next + 1) % len(at.ring)
	}
	n := len(at.ring)
	at.mu.Unlock()
	at.m.TraceRecords.Set(int64(n))
}

// sample copies the ring's current contents.
func (at *autoTuner) sample() []workload.Record {
	at.mu.Lock()
	defer at.mu.Unlock()
	return append([]workload.Record(nil), at.ring...)
}

func (at *autoTuner) run() {
	defer close(at.done)
	ticker := time.NewTicker(at.cfg.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-at.runCtx.Done():
			return
		case <-ticker.C:
			at.evaluate()
		}
	}
}

// evaluate runs one advisor pass over the sampled trace. Errors and
// panics are contained: they count a metric and the loop waits for the
// next tick, exactly like the mutate reindexer's rebuildOnce.
func (at *autoTuner) evaluate() {
	recs := at.sample()
	if len(recs) < at.cfg.MinSamples {
		return
	}
	if err := at.evaluateOnce(recs); err != nil {
		at.m.Failures.Inc()
	} else {
		at.m.Evaluations.Inc()
	}
}

func (at *autoTuner) evaluateOnce(recs []workload.Record) (err error) {
	defer core.Recover(&err)
	// Measure the serving index on the same sample the candidates will
	// replay: the swap decision compares like with like. Candidates are
	// shadow-built over the snapshot's graph and memo; the overlay is the
	// same for whichever index serves under it.
	snap := at.db.cur.Load()
	curMeas := advise.MeasurePlain(snap.ix, recs, at.reps)
	opt := at.opt
	opt.Prepared = snap.prep
	rep, err := advise.Run(at.runCtx, snap.prep, recs, advise.Config{
		Build:         buildFuncFor(snap.g, opt),
		Candidates:    kindNames(at.cfg.Candidates),
		MaxCandidates: at.cfg.MaxCandidates,
		BuildTimeout:  at.cfg.BuildTimeout,
		Budget:        at.cfg.Budget,
		Reps:          at.reps,
		KeepChosen:    true,
	})
	if err != nil {
		return err
	}
	for i := range rep.Candidates {
		if rep.Candidates[i].Feasible {
			at.m.CandidatesBuilt.Inc()
		} else {
			at.m.BuildFailures.Inc()
		}
	}
	at.report.Store(rep)
	improvement := 0.0
	if curMeas.P99NS > 0 {
		improvement = 1 - float64(rep.ChosenP99NS)/float64(curMeas.P99NS)
	}
	at.m.LastImprovementPermille.Set(int64(1000 * improvement))
	ix, ok := rep.ChosenIndex()
	if !ok || rep.Chosen == string(snap.kind) || improvement < at.cfg.MinImprovement {
		at.m.SwapsSkipped.Inc()
		return nil
	}
	at.offer(snap, Kind(rep.Chosen), ix)
	return nil
}

// offer hands publish an index of the given kind built over built's
// graph. The candidate keeps the serving graph, memo and overlay and
// replaces only the index; when a rebuild has moved the serving graph on
// since built was loaded, the candidate answers a superseded graph and is
// dropped (counted in swaps_skipped) — the next evaluation builds over the
// new one.
func (at *autoTuner) offer(built *serving, kind Kind, ix Index) bool {
	ix = at.db.instrument(ix, built.g)
	st := at.db.publish(func(cur *serving) *serving {
		if cur.g != built.g {
			return nil
		}
		next := *cur
		next.ix, next.kind = ix, kind
		return &next
	})
	if st == nil {
		at.m.SwapsSkipped.Inc()
		return false
	}
	at.m.SetKinds(string(kind), "")
	at.m.Swaps.Inc()
	return true
}

// close stops the background loop and waits for it to exit. The last
// published index keeps serving.
func (at *autoTuner) close() {
	at.closing.Do(func() {
		at.cancel()
		<-at.done
	})
}

// AdvisorStatus is the auto-tuner's externally visible state: the
// serving kind, the advisor metrics, and the last evaluation's full
// report (nil until the first evaluation completes). Served by
// /admin/advise.
type AdvisorStatus struct {
	CurrentKind string              `json:"current_kind"`
	InitialKind string              `json:"initial_kind"`
	Metrics     obs.AdvisorSnapshot `json:"metrics"`
	Report      *AdvisorReport      `json:"report,omitempty"`
}

// AdvisorStatus reports the auto-tuner's state; ok is false when
// DBConfig.AutoTune did not enable it.
func (db *DB) AdvisorStatus() (status AdvisorStatus, ok bool) {
	if db.aut == nil {
		return AdvisorStatus{}, false
	}
	snap := db.aut.m.Snapshot()
	return AdvisorStatus{
		CurrentKind: snap.CurrentKind,
		InitialKind: snap.InitialKind,
		Metrics:     snap,
		Report:      db.aut.report.Load(),
	}, true
}

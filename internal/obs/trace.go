package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped half of the observability layer: where
// metrics.go aggregates ("how does the plain route behave on average"),
// a Trace answers "why was THIS request slow" — a per-request ID plus a
// small fixed-size timeline of named phases (admission wait, parse,
// cache lookup, index probe, fallback traversal) threaded through
// context.Context from the HTTP edge down into DB.QueryCtx.
//
// The design budget mirrors the rest of the package: a disabled trace is
// a nil pointer, every method is nil-receiver-safe, and the enabled hot
// path appends into a fixed array inside the pooled Trace — no
// allocation per phase, two clock reads per phase. A Trace belongs to
// one request goroutine and is not safe for concurrent use; the Tracer
// that collects finished traces is.

// MaxTracePhases bounds the phases one trace records. Phases begun past
// the cap are dropped (counted in DroppedPhases) rather than grown: the
// point of the fixed array is that tracing never allocates mid-request.
const MaxTracePhases = 16

// TracePhase is one named, timed step of a request. Start is the offset
// from the trace's start; Depth encodes nesting exactly like
// PhaseSpan.Depth (a phase begun while another is open is its child).
type TracePhase struct {
	Name  string        `json:"name"`
	Depth int           `json:"depth"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

// Trace accumulates one request's timeline. Obtain from Tracer.Start,
// thread via WithTrace/TraceFrom, finish with Tracer.Finish. The exported
// metadata fields are set by the owner (the HTTP layer sets Method, Path
// and Status; the DB sets Route) between Start and Finish.
//
// A nil *Trace is the disabled state: every method no-ops after one
// pointer comparison, so instrumented code calls Begin/End unconditionally.
type Trace struct {
	ID     string
	Method string
	Path   string
	Route  string
	Status int
	Err    string

	start   time.Time
	n       int
	depth   int
	dropped int
	phases  [MaxTracePhases]TracePhase
}

// Begin opens a named phase and returns its token for End. On a nil
// trace (or a full phase array) it returns -1, which End ignores.
func (t *Trace) Begin(name string) int {
	if t == nil {
		return -1
	}
	if t.n >= MaxTracePhases {
		t.dropped++
		return -1
	}
	i := t.n
	t.n++
	t.phases[i] = TracePhase{Name: name, Depth: t.depth, Start: time.Since(t.start)}
	t.depth++
	return i
}

// End closes the phase opened by the Begin that returned tok.
func (t *Trace) End(tok int) {
	if t == nil || tok < 0 {
		return
	}
	t.phases[tok].Dur = time.Since(t.start) - t.phases[tok].Start
	t.depth--
}

// SetRoute records which DB routing class served the request.
func (t *Trace) SetRoute(route string) {
	if t != nil {
		t.Route = route
	}
}

// SetError records the request's failure; empty means success.
func (t *Trace) SetError(msg string) {
	if t != nil {
		t.Err = msg
	}
}

// Elapsed is the time since the trace started (0 on a nil trace).
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Phases returns the recorded phases so far (nil on a nil trace). The
// returned slice aliases the trace's internal array; callers must not
// retain it past Finish.
func (t *Trace) Phases() []TracePhase {
	if t == nil {
		return nil
	}
	return t.phases[:t.n]
}

// TraceRecord is one finished trace as stored in the Tracer's rings and
// rendered on /debug/traces.
type TraceRecord struct {
	ID            string        `json:"id"`
	Time          time.Time     `json:"time"`
	Method        string        `json:"method,omitempty"`
	Path          string        `json:"path,omitempty"`
	Route         string        `json:"route,omitempty"`
	Status        int           `json:"status,omitempty"`
	Err           string        `json:"error,omitempty"`
	Total         time.Duration `json:"total_ns"`
	Slow          bool          `json:"slow,omitempty"`
	Phases        []TracePhase  `json:"phases,omitempty"`
	DroppedPhases int           `json:"dropped_phases,omitempty"`
}

// Tracer owns trace lifecycle and retention: a pool of Trace objects, a
// fixed-size ring of the most recent finished traces, and a second ring
// holding only traces at or above the slow threshold — the slow-query
// log. All methods are safe for concurrent use; a nil *Tracer disables
// everything (Start returns the nil Trace).
type Tracer struct {
	capacity      int
	slowThreshold time.Duration

	started  Counter
	finished Counter
	slowHits Counter

	idSeq  atomic.Uint64
	idBase string

	pool sync.Pool

	mu         sync.Mutex
	recent     []TraceRecord
	recentNext int
	recentLen  int
	slow       []TraceRecord
	slowNext   int
	slowLen    int
}

// NewTracer returns a Tracer retaining the last capacity finished traces
// (default 128 when capacity <= 0) and flagging traces that took at
// least slowThreshold as slow (slowThreshold <= 0 disables the slow log;
// the recent ring still fills).
func NewTracer(capacity int, slowThreshold time.Duration) *Tracer {
	if capacity <= 0 {
		capacity = 128
	}
	var b [4]byte
	rand.Read(b[:]) // never errors per crypto/rand contract
	return &Tracer{
		capacity:      capacity,
		slowThreshold: slowThreshold,
		idBase:        hex.EncodeToString(b[:]),
		recent:        make([]TraceRecord, capacity),
		slow:          make([]TraceRecord, capacity),
	}
}

// SlowThreshold reports the configured slow-query cutoff.
func (tr *Tracer) SlowThreshold() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.slowThreshold
}

// newID synthesizes a request ID: a per-process random base plus a
// sequence number, unique within and across restarts for log joining.
func (tr *Tracer) newID() string {
	return tr.idBase + "-" + itoa(tr.idSeq.Add(1))
}

// itoa is strconv.FormatUint without the import weight in the hot path's
// inlining budget (IDs are generated once per request).
func itoa(v uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(buf[i:])
}

// MaxRequestIDLen bounds a caller-propagated request ID. The ID is
// echoed, logged and kept in both rings, so an unbounded one would let
// callers pin memory the rings were sized not to need.
const MaxRequestIDLen = 128

// validRequestID reports whether a caller's ID is kept: 1 to
// MaxRequestIDLen bytes of visible ASCII (0x21–0x7e).
func validRequestID(id string) bool {
	if id == "" || len(id) > MaxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return false
		}
	}
	return true
}

// Start begins a trace. id is the caller-propagated request ID
// (X-Request-Id); an empty or invalid one (see MaxRequestIDLen) is
// replaced by a generated ID. On a nil Tracer it returns nil — the
// disabled Trace every downstream Begin/End no-ops on.
func (tr *Tracer) Start(id string) *Trace {
	if tr == nil {
		return nil
	}
	tr.started.Inc()
	t, _ := tr.pool.Get().(*Trace)
	if t == nil {
		t = new(Trace)
	}
	if !validRequestID(id) {
		id = tr.newID()
	}
	t.ID = id
	t.start = time.Now()
	return t
}

// Finish closes t: records it into the recent ring (and the slow ring
// when total latency reaches the threshold), then recycles t. The trace
// must not be used after Finish. Reports whether it crossed the slow
// threshold; the record itself is read through Snapshot.
//
// Each ring slot keeps its phase array from one record to the next, so
// a steady stream of requests records without allocating; Snapshot
// deep-copies, so nothing it returns aliases a slot.
func (tr *Tracer) Finish(t *Trace) (slow bool) {
	if tr == nil || t == nil {
		return false
	}
	total := time.Since(t.start)
	slow = tr.slowThreshold > 0 && total >= tr.slowThreshold
	tr.finished.Inc()
	if slow {
		tr.slowHits.Inc()
	}
	tr.mu.Lock()
	rec := &tr.recent[tr.recentNext]
	*rec = TraceRecord{
		ID:            t.ID,
		Time:          t.start,
		Method:        t.Method,
		Path:          t.Path,
		Route:         t.Route,
		Status:        t.Status,
		Err:           t.Err,
		Total:         total,
		Slow:          slow,
		Phases:        append(rec.Phases[:0], t.phases[:t.n]...),
		DroppedPhases: t.dropped,
	}
	tr.recentNext = (tr.recentNext + 1) % tr.capacity
	if tr.recentLen < tr.capacity {
		tr.recentLen++
	}
	if slow {
		sl := &tr.slow[tr.slowNext]
		phases := append(sl.Phases[:0], rec.Phases...)
		*sl = *rec
		sl.Phases = phases
		tr.slowNext = (tr.slowNext + 1) % tr.capacity
		if tr.slowLen < tr.capacity {
			tr.slowLen++
		}
	}
	tr.mu.Unlock()
	*t = Trace{}
	tr.pool.Put(t)
	return slow
}

// TracerStats is the Tracer's counter view, cheap enough for every
// metrics scrape (no ring copying).
type TracerStats struct {
	Started       int64         `json:"started"`
	Finished      int64         `json:"finished"`
	Slow          int64         `json:"slow"`
	SlowThreshold time.Duration `json:"slow_threshold_ns"`
	Capacity      int           `json:"capacity"`
}

// Stats returns the counters.
func (tr *Tracer) Stats() TracerStats {
	if tr == nil {
		return TracerStats{}
	}
	return TracerStats{
		Started:       tr.started.Load(),
		Finished:      tr.finished.Load(),
		Slow:          tr.slowHits.Load(),
		SlowThreshold: tr.slowThreshold,
		Capacity:      tr.capacity,
	}
}

// TracerSnapshot is the /debug/traces document: counters plus both
// rings, most recent first.
type TracerSnapshot struct {
	TracerStats
	Recent []TraceRecord `json:"recent"`
	Slow   []TraceRecord `json:"slow"`
}

// Snapshot copies both rings, most recent first.
func (tr *Tracer) Snapshot() TracerSnapshot {
	if tr == nil {
		return TracerSnapshot{}
	}
	s := TracerSnapshot{TracerStats: tr.Stats()}
	tr.mu.Lock()
	s.Recent = ringCopy(tr.recent, tr.recentNext, tr.recentLen)
	s.Slow = ringCopy(tr.slow, tr.slowNext, tr.slowLen)
	tr.mu.Unlock()
	return s
}

// ringCopy extracts a ring's live entries newest-first. next is the slot
// the NEXT record would land in, so next-1 is the newest. Phases are
// copied too: a slot's phase array is reused by the records after it.
func ringCopy(ring []TraceRecord, next, n int) []TraceRecord {
	out := make([]TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := ring[((next-1-i)+2*len(ring))%len(ring)]
		rec.Phases = append([]TracePhase(nil), rec.Phases...)
		out = append(out, rec)
	}
	return out
}

// traceCtxKey keys the Trace in a context.Context.
type traceCtxKey struct{}

// WithTrace returns ctx carrying t. A nil t returns ctx unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom extracts the request's Trace, nil when ctx carries none (or
// is nil). Callers gate the lookup behind their own enabled flag so the
// disabled path stays at a pointer comparison rather than a ctx walk.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

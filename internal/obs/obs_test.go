package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestHistogramBucketsAndPercentiles(t *testing.T) {
	var h Histogram
	// 90 fast observations, 10 slow: p50 must land near the fast cluster,
	// p99 near the slow one (buckets are power-of-two, answers within 2x).
	for i := 0; i < 90; i++ {
		h.Record(100 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(100 * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 < 50*time.Nanosecond || s.P50 > 200*time.Nanosecond {
		t.Errorf("p50 = %v, want ~100ns", s.P50)
	}
	if s.P99 < 50*time.Microsecond || s.P99 > 200*time.Microsecond {
		t.Errorf("p99 = %v, want ~100µs", s.P99)
	}
	if s.Max < 100*time.Microsecond {
		t.Errorf("max upper bound %v below the recorded 100µs", s.Max)
	}
	if want := 90*100*time.Nanosecond + 10*100*time.Microsecond; s.Sum != want {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(-5) // clamped, never panics
	if s := h.Snapshot(); s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*100+i) * time.Nanosecond)
			}
		}(w)
	}
	// Snapshot concurrently with recording: counts must be monotone.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last int64
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			if s.Count < last {
				t.Errorf("snapshot count went backwards: %d -> %d", last, s.Count)
				return
			}
			last = s.Count
		}
	}()
	wg.Wait()
	<-done
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestSpansNestingAndNil(t *testing.T) {
	var nilSpans *Spans
	nilSpans.Start("ignored")() // must not panic
	nilSpans.Reset()
	if got := nilSpans.Snapshot(); got != nil {
		t.Fatalf("nil snapshot = %v", got)
	}

	s := &Spans{}
	endA := s.Start("a")
	endB := s.Start("a/child")
	time.Sleep(time.Millisecond)
	endB()
	endA()
	s.Start("b")()
	got := s.Snapshot()
	if len(got) != 3 {
		t.Fatalf("spans = %v", got)
	}
	if got[0].Name != "a" || got[0].Depth != 0 {
		t.Errorf("span 0 = %+v", got[0])
	}
	if got[1].Name != "a/child" || got[1].Depth != 1 {
		t.Errorf("span 1 = %+v", got[1])
	}
	if got[2].Name != "b" || got[2].Depth != 0 {
		t.Errorf("span 2 = %+v", got[2])
	}
	if got[1].Dur < time.Millisecond || got[0].Dur < got[1].Dur {
		t.Errorf("durations not nested: parent %v child %v", got[0].Dur, got[1].Dur)
	}
	s.Reset()
	if len(s.Snapshot()) != 0 {
		t.Error("reset did not clear spans")
	}
}

func TestIndexMetricsObserve(t *testing.T) {
	var m IndexMetrics
	m.Observe(true, time.Microsecond)
	m.Observe(false, time.Microsecond)
	m.Observe(false, time.Microsecond)
	m.ObserveProbe(true, 0)
	m.ObserveProbe(false, 42)
	m.ObserveOutcome(true) // outcome-only path: counted, no latency sample
	m.ObserveBatch(10)
	s := m.Snapshot()
	if s.Queries != 4 || s.Positive != 2 || s.Negative != 2 {
		t.Errorf("queries/pos/neg = %d/%d/%d", s.Queries, s.Positive, s.Negative)
	}
	if s.Latency.Count != 3 {
		t.Errorf("latency count = %d, want 3 (ObserveOutcome records none)", s.Latency.Count)
	}
	if got := m.Queries(); got != 4 {
		t.Errorf("Queries() = %d, want 4", got)
	}
	// Decided is derived: 4 queries, 1 fallback -> 3 decided.
	if s.Decided != 3 || s.Fallback != 1 || s.Visited != 42 {
		t.Errorf("decided/fallback/visited = %d/%d/%d", s.Decided, s.Fallback, s.Visited)
	}
	if s.Batches != 1 || s.BatchQueries != 10 {
		t.Errorf("batches = %d/%d", s.Batches, s.BatchQueries)
	}
	if r := s.DecidedRate(); r != 0.75 {
		t.Errorf("decided rate = %v", r)
	}
	if r := s.FallbackRate(); r != 0.25 {
		t.Errorf("fallback rate = %v", r)
	}
	if (IndexSnapshot{}).DecidedRate() != 0 {
		t.Error("empty decided rate should be 0")
	}
}

func TestDBMetricsConcurrentRecordAndSnapshot(t *testing.T) {
	m := NewDBMetrics()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			im := m.Index("BFL") // concurrent create/get on the same name
			for i := 0; i < per; i++ {
				im.Observe(i%2 == 0, time.Duration(i)*time.Nanosecond)
				m.Route(RouteKind(i%int(NumRoutes))).Observe(true, time.Nanosecond)
			}
		}(w)
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var last int64
		for i := 0; i < 200; i++ {
			s := m.Snapshot()
			q := s.Indexes["BFL"].Queries
			if q < last {
				t.Errorf("index queries went backwards: %d -> %d", last, q)
				return
			}
			last = q
		}
	}()
	wg.Wait()
	snapWG.Wait()
	s := m.Snapshot()
	if got := s.Indexes["BFL"].Queries; got != workers*per {
		t.Fatalf("queries = %d, want %d", got, workers*per)
	}
	var routed int64
	for _, rs := range s.Routes {
		routed += rs.Queries
	}
	if routed != workers*per {
		t.Fatalf("routed = %d, want %d", routed, workers*per)
	}
}

func TestRouteKindStrings(t *testing.T) {
	want := map[RouteKind]string{
		RoutePlain: "plain", RouteLCR: "lcr", RouteRLC: "rlc",
		RouteRegistered: "registered", RouteProduct: "product",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), w)
		}
	}
	if !strings.Contains(RouteKind(99).String(), "99") {
		t.Error("unknown route kind should include its number")
	}
}

// TestSnapshotWriteTextAndJSON checks the snapshot's two renderings: the
// Prometheus text exposition carries the build phase, index, route, error
// and fallback-visited figures, and the snapshot marshals to JSON.
func TestSnapshotWriteTextAndJSON(t *testing.T) {
	m := NewDBMetrics()
	end := m.Build.Start("scc/condense")
	end()
	m.Index("BFL").Observe(true, time.Microsecond)
	m.Index("BFL").ObserveProbe(false, 7)
	m.Route(RoutePlain).Observe(true, time.Microsecond)
	m.Errors.Inc()

	var sb strings.Builder
	s := m.Snapshot()
	s.WriteProm(&sb, "reach")
	out := sb.String()
	samples := checkPromSyntax(t, out)
	if _, ok := samples[`reach_build_phase_seconds{phase="scc/condense"}`]; !ok {
		t.Errorf("text exposition missing build phase scc/condense:\n%s", out)
	}
	for series, want := range map[string]string{
		`reach_index_queries_total{index="BFL"}`:          "1",
		`reach_route_queries_total{route="plain"}`:        "1",
		`reach_errors_total`:                              "1",
		`reach_index_fallback_visited_total{index="BFL"}`: "7",
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %q, want %q\n%s", series, got, want, out)
		}
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

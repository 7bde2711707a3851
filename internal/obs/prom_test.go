package obs

import (
	"bufio"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// promSeriesRe matches one exposition sample line: name, optional label
// set, value. The value charset covers integers, floats and +Inf.
var promSeriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

// promLeRe finds the le label of a histogram _bucket sample.
var promLeRe = regexp.MustCompile(`,?le="([^"]*)"`)

// checkPromSyntax validates a whole text-format document: no malformed
// line; HELP and TYPE exactly once per family, before its first sample;
// a family's samples contiguous (no family reopened after another began);
// a _bucket/_sum/_count sample only under a histogram TYPE; within each
// histogram series, le and the cumulative counts non-decreasing and the
// le="+Inf" bucket equal to _count. Returns the sample values keyed by
// series (name + labels).
func checkPromSyntax(t testing.TB, out string) map[string]string {
	t.Helper()
	help := map[string]bool{}
	typ := map[string]string{}
	samples := map[string]string{}
	type bucketState struct {
		le, cum float64
		inf     string
	}
	buckets := map[string]*bucketState{} // histogram series (no le) → state
	current := ""                        // family whose samples may follow
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			if f[1] == "HELP" {
				if help[f[2]] {
					t.Fatalf("HELP for %s declared twice", f[2])
				}
				help[f[2]] = true
			} else {
				if _, dup := typ[f[2]]; dup {
					t.Fatalf("TYPE for %s declared twice", f[2])
				}
				typ[f[2]] = f[3]
			}
			current = f[2]
			continue
		}
		m := promSeriesRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		name, labels, value := m[1], m[2], m[3]
		family := name
		if _, ok := typ[name]; !ok {
			// Histogram sub-series share their family's declaration.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, cut := strings.CutSuffix(name, suffix); cut && typ[base] == "histogram" {
					family = base
				}
			}
		}
		if _, ok := typ[family]; !ok || !help[family] {
			t.Fatalf("series %q emitted before its HELP/TYPE declaration", name)
		}
		if family != current {
			t.Fatalf("series %q of family %s emitted inside family %s", name, family, current)
		}
		samples[name+labels] = value
		if family == name || !strings.HasSuffix(name, "_bucket") {
			continue
		}
		loc := promLeRe.FindStringSubmatchIndex(labels)
		if loc == nil {
			t.Fatalf("bucket without le: %q", line)
		}
		le := labels[loc[2]:loc[3]]
		series := family + strings.TrimPrefix(labels[:loc[0]]+labels[loc[1]:], "{}")
		bs := buckets[series]
		if bs == nil {
			bs = &bucketState{le: -1, cum: -1}
			buckets[series] = bs
		}
		if bs.inf != "" {
			t.Fatalf("bucket after le=\"+Inf\": %q", line)
		}
		cum, err := strconv.ParseFloat(value, 64)
		if err != nil || cum < bs.cum {
			t.Fatalf("bucket counts not cumulative: %q after %v", line, bs.cum)
		}
		bs.cum = cum
		if le == "+Inf" {
			bs.inf = value
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil || bound <= bs.le {
			t.Fatalf("le bounds not ascending: %q after %v", line, bs.le)
		}
		bs.le = bound
	}
	for f := range typ {
		if !help[f] {
			t.Fatalf("family %s has TYPE but no HELP", f)
		}
	}
	for series, bs := range buckets {
		family, labels, _ := strings.Cut(series, "{")
		if labels != "" {
			labels = "{" + labels
		}
		if count := samples[family+"_count"+labels]; bs.inf == "" || bs.inf != count {
			t.Fatalf("histogram %s: le=\"+Inf\" bucket %q != _count %q", series, bs.inf, count)
		}
	}
	return samples
}

func TestSnapshotWriteProm(t *testing.T) {
	m := NewDBMetrics()
	im := m.Index("BFL")
	for i := 0; i < 100; i++ {
		im.Observe(i%2 == 0, time.Duration(i)*time.Microsecond)
	}
	im.ObserveProbe(false, 42)
	im.ObserveBatch(10)
	im.SetLatencySampleStride(32)
	im.SetFootprint(404, 9000, 77)
	m.Route(RoutePlain).Observe(true, time.Millisecond)
	m.Errors.Inc()
	end := m.Build.Start("scc/condense")
	end()
	snap := m.Snapshot()
	cache := &CacheSnapshot{Hits: 5, Misses: 3, Entries: 2, Capacity: 8}
	snap.Cache = cache
	snap.Degraded = []string{`plain "quoted"`}

	var sb strings.Builder
	snap.WriteProm(&sb, "reach")
	out := sb.String()
	samples := checkPromSyntax(t, out)

	for series, want := range map[string]string{
		`reach_index_queries_total{index="BFL"}`:                    "100",
		`reach_index_fallback_total{index="BFL"}`:                   "1",
		`reach_index_fallback_visited_total{index="BFL"}`:           "42",
		`reach_index_batch_queries_total{index="BFL"}`:              "10",
		`reach_index_latency_sample_stride{index="BFL"}`:            "32",
		`reach_route_queries_total{route="plain"}`:                  "1",
		`reach_cache_hits_total`:                                    "5",
		`reach_errors_total`:                                        "1",
		`reach_degraded_route{route="plain \"quoted\""}`:            "1",
		`reach_index_results_total{index="BFL",outcome="positive"}`: "50",
		`reach_index_size_bytes{index="BFL",section="offsets"}`:     "404",
		`reach_index_size_bytes{index="BFL",section="labels"}`:      "9000",
		`reach_index_size_bytes{index="BFL",section="aux"}`:         "77",
		`reach_index_latency_seconds_count{index="BFL"}`:            "100",
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %q, want %q", series, got, want)
		}
	}
	// The 100 samples span several power-of-two buckets, so the histogram
	// shows finite le bounds besides +Inf.
	finite := 0
	for series := range samples {
		if strings.HasPrefix(series, `reach_index_latency_seconds_bucket{index="BFL",le=`) &&
			!strings.HasSuffix(series, `le="+Inf"}`) {
			finite++
		}
	}
	if finite < 2 {
		t.Fatalf("histogram emitted %d finite bucket lines, want at least 2:\n%s", finite, out)
	}
}

// TestCheckPromSyntaxRejects feeds the checker documents that break one
// rule each, so a checker that stops enforcing a rule fails here.
func TestCheckPromSyntaxRejects(t *testing.T) {
	const head = "# HELP x_seconds h\n# TYPE x_seconds histogram\n"
	for name, doc := range map[string]string{
		"undeclared":      "x_total 1\n",
		"help twice":      "# HELP x_total h\n# HELP x_total h\n# TYPE x_total counter\nx_total 1\n",
		"type twice":      "# HELP x_total h\n# TYPE x_total counter\n# TYPE x_total counter\nx_total 1\n",
		"no help":         "# TYPE x_total counter\nx_total 1\n",
		"interleaved":     "# HELP a h\n# TYPE a gauge\n# HELP b h\n# TYPE b gauge\nb 1\na 1\n",
		"bucket on gauge": "# HELP x h\n# TYPE x gauge\nx_bucket{le=\"+Inf\"} 1\n",
		"not cumulative":  head + "x_seconds_bucket{le=\"1\"} 3\nx_seconds_bucket{le=\"2\"} 2\nx_seconds_bucket{le=\"+Inf\"} 3\nx_seconds_sum 1\nx_seconds_count 3\n",
		"inf != count":    head + "x_seconds_bucket{le=\"1\"} 2\nx_seconds_bucket{le=\"+Inf\"} 2\nx_seconds_sum 1\nx_seconds_count 3\n",
		"malformed":       "# HELP x h\n# TYPE x gauge\nx{ 1\n",
	} {
		ft := &fatalRecorder{}
		func() {
			defer func() { recover() }()
			checkPromSyntax(ft, doc)
		}()
		if !ft.failed {
			t.Errorf("%s: checker accepted\n%s", name, doc)
		}
	}
}

// fatalRecorder is a testing.TB whose Fatalf records the failure and
// unwinds, so a test can assert that a checker rejects its input.
type fatalRecorder struct {
	testing.TB
	failed bool
}

func (f *fatalRecorder) Helper() {}

func (f *fatalRecorder) Fatalf(string, ...any) {
	f.failed = true
	panic(f)
}

func TestServerAndTracerWriteProm(t *testing.T) {
	var m ServerMetrics
	m.Accepted.Inc()
	m.Rejected.Inc()
	m.InFlight.Add(3)
	m.Queued.Add(1)
	var sb strings.Builder
	m.Snapshot().WriteProm(&sb, "reach")

	tcr := NewTracer(4, 250*time.Millisecond)
	tcr.Finish(tcr.Start(""))
	tcr.Stats().WriteProm(&sb, "reach")

	samples := checkPromSyntax(t, sb.String())
	for series, want := range map[string]string{
		"reach_server_accepted_total":        "1",
		"reach_server_rejected_total":        "1",
		"reach_server_in_flight":             "3",
		"reach_server_queued":                "1",
		"reach_traces_started_total":         "1",
		"reach_traces_finished_total":        "1",
		"reach_trace_slow_threshold_seconds": "0.25",
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %q, want %q", series, got, want)
		}
	}
}

func TestPromEscape(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := promEscape(in); got != want {
		t.Fatalf("promEscape = %q, want %q", got, want)
	}
	if got := promEscape("plain"); got != "plain" {
		t.Fatalf("promEscape(plain) = %q", got)
	}
}

// TestServerMetricsConcurrent exercises the gauges and reload counters
// under racing writers and scrapers; run with -race this is the
// regression net for the serving layer's shared counters.
func TestServerMetricsConcurrent(t *testing.T) {
	var m ServerMetrics
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Queued.Add(1)
				m.Queued.Add(-1)
				m.Accepted.Inc()
				m.InFlight.Add(1)
				if i%100 == 0 {
					m.Reloads.Inc()
					m.ReloadErrors.Inc()
				}
				m.InFlight.Add(-1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last ServerSnapshot
		for i := 0; i < 500; i++ {
			s := m.Snapshot()
			if s.Accepted < last.Accepted || s.Reloads < last.Reloads {
				t.Error("counters went backwards")
				return
			}
			last = s
		}
	}()
	wg.Wait()
	s := m.Snapshot()
	if s.Accepted != workers*per {
		t.Fatalf("accepted = %d, want %d", s.Accepted, workers*per)
	}
	if s.Reloads != workers*(per/100) || s.ReloadErrors != workers*(per/100) {
		t.Fatalf("reloads = %d/%d, want %d", s.Reloads, s.ReloadErrors, workers*(per/100))
	}
	if s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("gauges not balanced: in-flight=%d queued=%d", s.InFlight, s.Queued)
	}
}

// CheckPromSyntax exports the document checker to the external obs_test
// package, whose tests drive a whole server.
var CheckPromSyntax = checkPromSyntax

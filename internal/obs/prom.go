package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Prometheus text exposition (format 0.0.4), stdlib-only. The snapshots
// this package already produces are rendered as metric families under a
// caller-chosen prefix; the power-of-two Histogram maps directly onto a
// Prometheus histogram whose le bounds are the bucket upper bounds in
// seconds. Empty leading/trailing buckets are elided — the text format
// allows any ascending le set per series, and a 64-bucket histogram
// would otherwise emit 64 lines of zeros per series.
//
// Latency histograms recorded through the sampling recorder carry their
// stride as a companion gauge ({prefix}_index_latency_sample_stride);
// consumers multiply sampled bucket counts by it to estimate totals.

// PromContentType is the Content-Type of text exposition format 0.0.4.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter renders one scrape. It enforces the family discipline —
// HELP and TYPE once, then every series of that family — that scrapers
// validate.
type promWriter struct {
	w      io.Writer
	prefix string
}

func (p *promWriter) family(name, help, typ string) string {
	full := p.prefix + "_" + name
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", full, help, full, typ)
	return full
}

// series emits one sample line. labels come as alternating key, value
// pairs; values are escaped per the exposition format.
func (p *promWriter) series(family string, value string, labels ...string) {
	if len(labels) == 0 {
		fmt.Fprintf(p.w, "%s %s\n", family, value)
		return
	}
	var sb strings.Builder
	sb.WriteString(family)
	sb.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(promEscape(labels[i+1]))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	fmt.Fprintf(p.w, "%s %s\n", sb.String(), value)
}

func (p *promWriter) int(family string, v int64, labels ...string) {
	p.series(family, strconv.FormatInt(v, 10), labels...)
}

func (p *promWriter) float(family string, v float64, labels ...string) {
	p.series(family, strconv.FormatFloat(v, 'g', -1, 64), labels...)
}

// promEscape escapes a label value: backslash, quote, newline.
func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }

// histogram emits one Prometheus histogram series set (_bucket lines
// with cumulative counts, _sum in seconds, _count) from a HistSnapshot.
// family is the base name (…_latency_seconds); labels identify the series.
func (p *promWriter) histogram(family string, h *HistSnapshot, labels ...string) {
	lo, hi := 0, -1
	for b := range h.buckets {
		if h.buckets[b] != 0 {
			if hi < 0 {
				lo = b
			}
			hi = b
		}
	}
	var cum int64
	for b := lo; b <= hi; b++ {
		cum += h.buckets[b]
		le := strconv.FormatFloat(seconds(bucketUpper(b)), 'g', -1, 64)
		p.int(family+"_bucket", cum, append(append([]string(nil), labels...), "le", le)...)
	}
	p.int(family+"_bucket", h.Count, append(append([]string(nil), labels...), "le", "+Inf")...)
	p.float(family+"_sum", seconds(h.Sum), labels...)
	p.int(family+"_count", h.Count, labels...)
}

// WriteProm renders the DB snapshot as Prometheus text exposition under
// the given metric prefix (conventionally "reach").
func (s Snapshot) WriteProm(w io.Writer, prefix string) {
	p := &promWriter{w: w, prefix: prefix}
	idx := sortedKeys(s.Indexes)

	f := p.family("index_queries_total", "Reachability queries observed per index.", "counter")
	for _, name := range idx {
		p.int(f, s.Indexes[name].Queries, "index", name)
	}
	f = p.family("index_results_total", "Query outcomes per index.", "counter")
	for _, name := range idx {
		is := s.Indexes[name]
		p.int(f, is.Positive, "index", name, "outcome", "positive")
		p.int(f, is.Negative, "index", name, "outcome", "negative")
	}
	f = p.family("index_decided_total", "Queries the index settled without guided traversal.", "counter")
	for _, name := range idx {
		p.int(f, s.Indexes[name].Decided, "index", name)
	}
	f = p.family("index_fallback_total", "Queries that required guided traversal.", "counter")
	for _, name := range idx {
		p.int(f, s.Indexes[name].Fallback, "index", name)
	}
	f = p.family("index_fallback_visited_total", "Vertices expanded across all guided fallbacks.", "counter")
	for _, name := range idx {
		p.int(f, s.Indexes[name].Visited, "index", name)
	}
	f = p.family("index_batches_total", "BatchReach invocations routed through the index.", "counter")
	for _, name := range idx {
		p.int(f, s.Indexes[name].Batches, "index", name)
	}
	f = p.family("index_batch_queries_total", "Queries submitted via batches.", "counter")
	for _, name := range idx {
		p.int(f, s.Indexes[name].BatchQueries, "index", name)
	}
	f = p.family("index_latency_seconds", "Per-index query latency (sampled; see index_latency_sample_stride).", "histogram")
	for _, name := range idx {
		is := s.Indexes[name]
		p.histogram(f, &is.Latency, "index", name)
	}
	f = p.family("index_latency_sample_stride", "1-in-N latency sampling stride; multiply sampled histogram counts by this to estimate totals.", "gauge")
	for _, name := range idx {
		stride := s.Indexes[name].LatencySampleStride
		if stride < 1 {
			stride = 1
		}
		p.int(f, stride, "index", name)
	}
	f = p.family("index_size_bytes", "Resident index footprint by section (offsets/labels/aux).", "gauge")
	for _, name := range idx {
		is := s.Indexes[name]
		if is.Bytes == 0 {
			continue
		}
		p.int(f, is.BytesOffsets, "index", name, "section", "offsets")
		p.int(f, is.BytesLabels, "index", name, "section", "labels")
		p.int(f, is.BytesAux, "index", name, "section", "aux")
	}

	routes := sortedKeys(s.Routes)
	f = p.family("route_queries_total", "DB.Query calls per routing class.", "counter")
	for _, name := range routes {
		p.int(f, s.Routes[name].Queries, "route", name)
	}
	f = p.family("route_results_total", "Routed query outcomes per class.", "counter")
	for _, name := range routes {
		rs := s.Routes[name]
		p.int(f, rs.Positive, "route", name, "outcome", "positive")
		p.int(f, rs.Negative, "route", name, "outcome", "negative")
	}
	f = p.family("route_latency_seconds", "Per-route query latency.", "histogram")
	for _, name := range routes {
		rs := s.Routes[name]
		p.histogram(f, &rs.Latency, "route", name)
	}

	if s.Cache != nil {
		f = p.family("cache_hits_total", "Query-result cache hits.", "counter")
		p.int(f, s.Cache.Hits)
		f = p.family("cache_misses_total", "Query-result cache misses.", "counter")
		p.int(f, s.Cache.Misses)
		f = p.family("cache_evictions_total", "Query-result cache evictions.", "counter")
		p.int(f, s.Cache.Evictions)
		f = p.family("cache_entries", "Query-result cache entries resident.", "gauge")
		p.int(f, int64(s.Cache.Entries))
		f = p.family("cache_capacity", "Query-result cache capacity.", "gauge")
		p.int(f, int64(s.Cache.Capacity))
	}

	if len(s.Build) > 0 {
		// Span names repeat (e.g. per-pass phases); aggregate total
		// seconds by name so each (phase) series appears once.
		totals := make(map[string]time.Duration)
		var names []string
		for _, sp := range s.Build {
			if _, seen := totals[sp.Name]; !seen {
				names = append(names, sp.Name)
			}
			totals[sp.Name] += sp.Dur
		}
		f = p.family("build_phase_seconds", "Total build time per named phase.", "gauge")
		for _, name := range names {
			p.float(f, seconds(totals[name]), "phase", name)
		}
	}

	if s.Mutation != nil {
		s.Mutation.writeProm(p)
	}

	p.int(p.family("serving_epoch", "Epoch of the serving snapshot: advances at every commit and background rebuild.", "gauge"), s.Epoch)
	f = p.family("errors_total", "Query and build errors.", "counter")
	p.int(f, s.Errors)
	f = p.family("panics_total", "Index panics contained at the query boundary.", "counter")
	p.int(f, s.Panics)
	f = p.family("canceled_total", "Builds and queries abandoned via context cancellation.", "counter")
	p.int(f, s.Canceled)
	if len(s.Degraded) > 0 {
		f = p.family("degraded_route", "1 for each serving route running index-free after a tolerated build failure.", "gauge")
		for _, name := range s.Degraded {
			p.int(f, 1, "route", name)
		}
	}
}

// WriteProm renders the server's admission/lifecycle counters.
func (s ServerSnapshot) WriteProm(w io.Writer, prefix string) {
	p := &promWriter{w: w, prefix: prefix}
	p.int(p.family("server_accepted_total", "Requests admitted past the admission controller.", "counter"), s.Accepted)
	p.int(p.family("server_rejected_total", "Requests rejected with 429.", "counter"), s.Rejected)
	p.int(p.family("server_drained_total", "Requests completed while draining.", "counter"), s.Drained)
	p.int(p.family("server_reloads_total", "Successful DB hot-swap reloads.", "counter"), s.Reloads)
	p.int(p.family("server_reload_errors_total", "Failed reloads (old DB kept serving).", "counter"), s.ReloadErrors)
	p.int(p.family("server_in_flight", "Admitted requests currently executing.", "gauge"), s.InFlight)
	p.int(p.family("server_queued", "Requests waiting for an admission slot.", "gauge"), s.Queued)
}

// WriteProm renders the tracer's counters.
func (s TracerStats) WriteProm(w io.Writer, prefix string) {
	p := &promWriter{w: w, prefix: prefix}
	p.int(p.family("traces_started_total", "Request traces started.", "counter"), s.Started)
	p.int(p.family("traces_finished_total", "Request traces finished and retained.", "counter"), s.Finished)
	p.int(p.family("traces_slow_total", "Traces at or above the slow-query threshold.", "counter"), s.Slow)
	p.float(p.family("trace_slow_threshold_seconds", "Configured slow-query threshold.", "gauge"), seconds(s.SlowThreshold))
}

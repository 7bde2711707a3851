package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// IndexMetrics accumulates the per-index query signals of §3.3/§5: how
// often the index alone decided (TryReach), how often guided traversal had
// to run and how much of the graph it touched, and the latency and
// positive/negative split of every Reach call.
//
// The representation is chosen so a decided (index-only) query costs a
// single atomic add: the total query count is Positive+Negative, and the
// decided count is Queries-Fallback — only fallbacks, which already pay
// for a traversal, record extra counters. Latency may be sampled by the
// recorder (see core.Instrumented), so Latency.Count can be below Queries.
type IndexMetrics struct {
	Positive Counter // queries answered true
	Negative Counter // queries answered false
	Fallback Counter // required guided traversal
	Visited  Counter // total vertices expanded across all fallbacks

	Batches      Counter // BatchReach invocations routed through this index
	BatchQueries Counter // queries submitted via batches

	Latency Histogram

	// sampleStride is the recorder's latency sampling rate: 1 in every
	// sampleStride queries records into Latency (0 or 1 = every query).
	// Set once by the recorder (core.Instrument); exported via snapshots
	// so /metrics consumers can rescale sampled histogram counts back to
	// the exact query totals.
	sampleStride atomic.Int64

	// Resident footprint of the index, split by section (offset tables,
	// label payloads, auxiliary structures). Set once after build/load via
	// SetFootprint; gauges, not counters.
	fpOffsets, fpLabels, fpAux atomic.Int64
}

// SetFootprint records the index's resident footprint in bytes, split by
// section: CSR offset tables, label payloads, and auxiliary structures
// (ranks, DFS intervals, condensation maps, ...).
func (m *IndexMetrics) SetFootprint(offsets, labels, aux int64) {
	m.fpOffsets.Store(offsets)
	m.fpLabels.Store(labels)
	m.fpAux.Store(aux)
}

// SetLatencySampleStride records the recorder's latency sampling rate.
func (m *IndexMetrics) SetLatencySampleStride(stride int64) { m.sampleStride.Store(stride) }

// LatencySampleStride reports the sampling rate (0 when never set).
func (m *IndexMetrics) LatencySampleStride() int64 { return m.sampleStride.Load() }

// Observe records one completed query with its latency.
func (m *IndexMetrics) Observe(positive bool, d time.Duration) {
	m.ObserveOutcome(positive)
	m.Latency.Record(d)
}

// ObserveOutcome records one completed query without latency — the
// single-atomic-add path the instrumented wrapper uses on unsampled calls.
func (m *IndexMetrics) ObserveOutcome(positive bool) {
	if positive {
		m.Positive.Inc()
	} else {
		m.Negative.Inc()
	}
}

// Queries returns the total number of observed queries.
func (m *IndexMetrics) Queries() int64 { return m.Positive.Load() + m.Negative.Load() }

// ObserveProbe records the probe-level outcome of one query on a partial
// index: decided reports whether TryReach settled it, visited is the
// number of vertices the guided fallback expanded (0 when decided).
// Decided queries are free here — the decided count is derived as
// Queries-Fallback at snapshot time.
func (m *IndexMetrics) ObserveProbe(decided bool, visited int) {
	if decided {
		return
	}
	m.Fallback.Inc()
	m.Visited.Add(int64(visited))
}

// ObserveBlock records a block of completed queries at once: out holds
// their answers, fallback of them required a guided traversal and those
// traversals expanded visited vertices in total. It advances every
// counter exactly as one ObserveOutcome and ObserveProbe per query would.
func (m *IndexMetrics) ObserveBlock(out []bool, fallback, visited int) {
	pos := 0
	for _, r := range out {
		if r {
			pos++
		}
	}
	m.Positive.Add(int64(pos))
	m.Negative.Add(int64(len(out) - pos))
	if fallback > 0 {
		m.Fallback.Add(int64(fallback))
		m.Visited.Add(int64(visited))
	}
}

// ObserveBatch records one batch submission of n queries.
func (m *IndexMetrics) ObserveBatch(n int) {
	m.Batches.Inc()
	m.BatchQueries.Add(int64(n))
}

// IndexSnapshot is a point-in-time view of IndexMetrics. Queries is
// always Positive+Negative and Decided is Queries-Fallback; Latency.Count
// may be lower than Queries when the recorder samples timing. Because
// Decided is derived from counters read at slightly different instants,
// it can transiently overestimate during concurrent load (it is exact at
// rest and never negative).
type IndexSnapshot struct {
	Queries  int64 `json:"queries"`
	Positive int64 `json:"positive"`
	Negative int64 `json:"negative"`
	Decided  int64 `json:"decided"`
	Fallback int64 `json:"fallback"`
	Visited  int64 `json:"visited"`

	Batches      int64 `json:"batches,omitempty"`
	BatchQueries int64 `json:"batch_queries,omitempty"`

	Latency HistSnapshot `json:"latency"`

	// LatencySampleStride is the recorder's sampling rate: 1 in every
	// this-many queries is timed, so Latency.Count ≈ Queries/stride and
	// scrapers multiply sampled counts by it to estimate totals. 0 or 1
	// means every query was timed.
	LatencySampleStride int64 `json:"latency_sample_stride,omitempty"`

	// Resident footprint in bytes, split by section (see SetFootprint).
	// Bytes is the total; all four are zero when the footprint was never
	// recorded.
	Bytes        int64 `json:"bytes,omitempty"`
	BytesOffsets int64 `json:"bytes_offsets,omitempty"`
	BytesLabels  int64 `json:"bytes_labels,omitempty"`
	BytesAux     int64 `json:"bytes_aux,omitempty"`
}

// DecidedRate is the fraction of queries the index settled without guided
// traversal — the paper's §3.3 measure of a partial index's pruning power
// (1.0 for complete indexes, which never fall back).
func (s IndexSnapshot) DecidedRate() float64 { return rate(s.Decided, s.Queries) }

// FallbackRate is 1 - DecidedRate.
func (s IndexSnapshot) FallbackRate() float64 { return rate(s.Fallback, s.Queries) }

func rate(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// Snapshot captures the current values. Fallback is read before Positive
// and Negative so that derived Decided never goes negative; the derived
// Queries is monotone across concurrent snapshots because each underlying
// counter only grows.
func (m *IndexMetrics) Snapshot() IndexSnapshot {
	fb := m.Fallback.Load()
	pos, neg := m.Positive.Load(), m.Negative.Load()
	decided := pos + neg - fb
	if decided < 0 {
		decided = 0
	}
	off, lab, aux := m.fpOffsets.Load(), m.fpLabels.Load(), m.fpAux.Load()
	return IndexSnapshot{
		Queries:             pos + neg,
		Positive:            pos,
		Negative:            neg,
		Decided:             decided,
		Fallback:            fb,
		Visited:             m.Visited.Load(),
		Batches:             m.Batches.Load(),
		BatchQueries:        m.BatchQueries.Load(),
		Latency:             m.Latency.Snapshot(),
		LatencySampleStride: m.sampleStride.Load(),
		Bytes:               off + lab + aux,
		BytesOffsets:        off,
		BytesLabels:         lab,
		BytesAux:            aux,
	}
}

// RouteKind enumerates DB.Query routing decisions (§2.2 constraint classes
// plus the plain-Reach path and registered constraint indexes).
type RouteKind int

// Routing classes.
const (
	RoutePlain       RouteKind = iota // plain reachability (Reach, trivially-plain constraints)
	RouteLCR                          // alternation constraints → LCR index (§4.1)
	RouteRLC                          // concatenation constraints → RLC index (§4.2)
	RouteRegistered                   // registered per-constraint index (§5)
	RouteProduct                      // general constraints → product-automaton search (§2.3)
	RouteDegradedLCR                  // alternation constraints served by online traversal (LCR index unavailable)
	RouteDegradedRLC                  // concatenation constraints served by online traversal (RLC index unavailable)
	NumRoutes
)

func (k RouteKind) String() string {
	switch k {
	case RoutePlain:
		return "plain"
	case RouteLCR:
		return "lcr"
	case RouteRLC:
		return "rlc"
	case RouteRegistered:
		return "registered"
	case RouteProduct:
		return "product"
	case RouteDegradedLCR:
		return "degraded-lcr"
	case RouteDegradedRLC:
		return "degraded-rlc"
	}
	return fmt.Sprintf("route(%d)", int(k))
}

// RouteMetrics accumulates per-class DB.Query statistics.
type RouteMetrics struct {
	Queries  Counter
	Positive Counter
	Negative Counter
	Latency  Histogram
}

// Observe records one routed query.
func (m *RouteMetrics) Observe(positive bool, d time.Duration) {
	m.Queries.Inc()
	if positive {
		m.Positive.Inc()
	} else {
		m.Negative.Inc()
	}
	m.Latency.Record(d)
}

// RouteSnapshot is a point-in-time view of RouteMetrics.
type RouteSnapshot struct {
	Queries  int64        `json:"queries"`
	Positive int64        `json:"positive"`
	Negative int64        `json:"negative"`
	Latency  HistSnapshot `json:"latency"`
}

// CacheSnapshot is a point-in-time view of the DB's query-result cache
// (see DBConfig.CacheSize): the cache/* counters of OBSERVABILITY.md.
type CacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// DBMetrics is the DB-level metrics root: build-phase spans, per-class
// routing counters, per-index query metrics, and error/fault counters.
type DBMetrics struct {
	Build    Spans
	Errors   Counter
	Panics   Counter // index panics contained at the query boundary (ErrIndexPanic)
	Canceled Counter // builds/queries abandoned via context cancellation
	// ServingEpoch is the epoch of the DB's serving snapshot: set at every
	// publish (commit, background rebuild), nowhere else.
	ServingEpoch Gauge

	routes [NumRoutes]RouteMetrics

	mu       sync.Mutex
	indexes  map[string]*IndexMetrics
	degraded []string
	cacheFn  func() CacheSnapshot
	mutation *MutationMetrics
}

// NewDBMetrics returns an empty metrics root.
func NewDBMetrics() *DBMetrics {
	return &DBMetrics{indexes: make(map[string]*IndexMetrics)}
}

// Route returns the metrics cell for one routing class.
func (m *DBMetrics) Route(k RouteKind) *RouteMetrics { return &m.routes[k] }

// SetDegraded records which serving routes run in degraded (index-free)
// mode; the list appears verbatim in every later Snapshot.
func (m *DBMetrics) SetDegraded(names []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.degraded = append([]string(nil), names...)
}

// SetCacheSource installs the query-result cache's stats provider; every
// later Snapshot carries its point-in-time CacheSnapshot. A nil source
// (the default) omits the cache section entirely.
func (m *DBMetrics) SetCacheSource(f func() CacheSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheFn = f
}

// Index returns (creating on first use) the metrics cell for the named
// index. The returned pointer is stable and safe for concurrent recording.
func (m *DBMetrics) Index(name string) *IndexMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	im := m.indexes[name]
	if im == nil {
		im = &IndexMetrics{}
		m.indexes[name] = im
	}
	return im
}

// Snapshot is a point-in-time view of everything a DBMetrics recorded.
type Snapshot struct {
	Indexes  map[string]IndexSnapshot `json:"indexes"`
	Routes   map[string]RouteSnapshot `json:"routes"`
	Build    []PhaseSpan              `json:"build,omitempty"`
	Cache    *CacheSnapshot           `json:"cache,omitempty"`
	Mutation *MutationSnapshot        `json:"mutation,omitempty"`
	Errors   int64                    `json:"errors"`
	Panics   int64                    `json:"panics,omitempty"`
	Canceled int64                    `json:"canceled,omitempty"`
	Epoch    int64                    `json:"epoch"`
	Degraded []string                 `json:"degraded,omitempty"`
}

// Snapshot captures all metrics. It may run concurrently with recording;
// every counter it reads is individually monotone.
func (m *DBMetrics) Snapshot() Snapshot {
	s := Snapshot{
		Indexes:  make(map[string]IndexSnapshot),
		Routes:   make(map[string]RouteSnapshot),
		Build:    m.Build.Snapshot(),
		Errors:   m.Errors.Load(),
		Panics:   m.Panics.Load(),
		Canceled: m.Canceled.Load(),
		Epoch:    m.ServingEpoch.Load(),
	}
	m.mu.Lock()
	cells := make(map[string]*IndexMetrics, len(m.indexes))
	for name, im := range m.indexes {
		cells[name] = im
	}
	if len(m.degraded) > 0 {
		s.Degraded = append([]string(nil), m.degraded...)
	}
	cacheFn := m.cacheFn
	mutation := m.mutation
	m.mu.Unlock()
	if cacheFn != nil {
		cs := cacheFn()
		s.Cache = &cs
	}
	if mutation != nil {
		ms := mutation.Snapshot()
		s.Mutation = &ms
	}
	for name, im := range cells {
		s.Indexes[name] = im.Snapshot()
	}
	for k := RouteKind(0); k < NumRoutes; k++ {
		rm := &m.routes[k]
		if rm.Queries.Load() == 0 {
			continue
		}
		s.Routes[k.String()] = RouteSnapshot{
			Queries:  rm.Queries.Load(),
			Positive: rm.Positive.Load(),
			Negative: rm.Negative.Load(),
			Latency:  rm.Latency.Snapshot(),
		}
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

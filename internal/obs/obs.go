// Package obs is the engine's zero-dependency observability layer: atomic
// counters, lock-free power-of-two latency histograms, and hierarchical
// build-phase spans, composed into per-index query metrics and DB-level
// routing metrics. A metric leaves the process one way: as Prometheus
// text exposition 0.0.4 (prom.go), which the server's /metrics and
// `reachcli stats` both write.
//
// The paper's quantitative claims (§3–§5) — partial indexes answer ≥10×
// faster than raw traversal, negative queries dominate real workloads and
// reward false-negative-free pruning, LCR construction dwarfs plain
// indexing — are only checkable at runtime through exactly the signals
// this package records: TryReach decided-rates, guided-traversal fallback
// volume, per-class routing latencies, and named per-phase build costs.
//
// Everything here is safe for concurrent use. Recording is a handful of
// atomic adds (no locks on the query path); the nil-metrics fast path in
// the callers costs one pointer comparison, so disabled instrumentation
// is free.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

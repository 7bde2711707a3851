package obs

import "sync/atomic"

// Gauge is a current-value metric (e.g. requests in flight): unlike
// Counter it moves both ways.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set replaces the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// ServerMetrics counts the serving layer's admission and lifecycle
// decisions (see internal/server and OBSERVABILITY.md, "Server
// counters"). Like every recorder in this package it is a handful of
// atomics, safe for concurrent use on the request path.
type ServerMetrics struct {
	Accepted     Counter // requests admitted past the admission controller
	Rejected     Counter // requests turned away with 429 (queue full or wait expired)
	Drained      Counter // requests that completed while the server was draining
	Reloads      Counter // successful /admin/reload DB swaps
	ReloadErrors Counter // reloads that failed (old DB kept serving)
	InFlight     Gauge   // admitted requests currently executing
	Queued       Gauge   // requests currently waiting for an admission slot
}

// ServerSnapshot is a point-in-time view of ServerMetrics.
type ServerSnapshot struct {
	Accepted     int64 `json:"accepted"`
	Rejected     int64 `json:"rejected"`
	Drained      int64 `json:"drained"`
	Reloads      int64 `json:"reloads"`
	ReloadErrors int64 `json:"reload_errors,omitempty"`
	InFlight     int64 `json:"in_flight"`
	Queued       int64 `json:"queued"`
}

// Snapshot captures the current values. Gauges are instantaneous;
// counters are monotone.
func (m *ServerMetrics) Snapshot() ServerSnapshot {
	return ServerSnapshot{
		Accepted:     m.Accepted.Load(),
		Rejected:     m.Rejected.Load(),
		Drained:      m.Drained.Load(),
		Reloads:      m.Reloads.Load(),
		ReloadErrors: m.ReloadErrors.Load(),
		InFlight:     m.InFlight.Load(),
		Queued:       m.Queued.Load(),
	}
}

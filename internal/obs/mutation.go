package obs

// MutationMetrics accumulates the live-mutation pipeline's signals: WAL
// traffic, group-commit flush latency, the size of the delta overlay the
// query path carries, and background-reindex outcomes (see
// OBSERVABILITY.md, "Mutation counters").
type MutationMetrics struct {
	WALAppends  Counter // batches appended to the WAL
	WALBytes    Counter // bytes appended to the WAL
	WALFsyncs   Counter // fsyncs issued (group commits + Flush barriers)
	WALErrors   Counter // failed WAL appends/syncs (batch rejected, rolled back)
	WALReplayed Counter // ops recovered from the WAL at startup

	Applied  Counter // ops applied to the live overlay
	Rejected Counter // ops refused (validation or WAL failure)

	// FlushLatency is the group-commit latency: submit-to-durable for
	// each batch, recorded once per flush.
	FlushLatency Histogram

	OverlayAdded   Gauge // net-added edges the frozen index does not know
	OverlayRemoved Gauge // net-removed edges the frozen index still contains

	Rebuilds        Counter // background reindexes published
	RebuildFailures Counter // reindex attempts that failed (any cause)
	RebuildPanics   Counter // reindex attempts that panicked (subset of failures)
	// RebuildDegraded is 1 while retries are exhausted and the overlay
	// can only grow until a later commit re-triggers a rebuild.
	RebuildDegraded Gauge
}

// MutationSnapshot is a point-in-time view of MutationMetrics.
type MutationSnapshot struct {
	WALAppends  int64 `json:"wal_appends"`
	WALBytes    int64 `json:"wal_bytes"`
	WALFsyncs   int64 `json:"wal_fsyncs"`
	WALErrors   int64 `json:"wal_errors,omitempty"`
	WALReplayed int64 `json:"wal_replayed,omitempty"`

	Applied  int64 `json:"applied"`
	Rejected int64 `json:"rejected,omitempty"`

	FlushLatency HistSnapshot `json:"flush_latency"`

	OverlayAdded   int64 `json:"overlay_added"`
	OverlayRemoved int64 `json:"overlay_removed"`

	Rebuilds        int64 `json:"rebuilds"`
	RebuildFailures int64 `json:"rebuild_failures,omitempty"`
	RebuildPanics   int64 `json:"rebuild_panics,omitempty"`
	RebuildDegraded bool  `json:"rebuild_degraded,omitempty"`
}

// Snapshot captures the current values.
func (m *MutationMetrics) Snapshot() MutationSnapshot {
	return MutationSnapshot{
		WALAppends:      m.WALAppends.Load(),
		WALBytes:        m.WALBytes.Load(),
		WALFsyncs:       m.WALFsyncs.Load(),
		WALErrors:       m.WALErrors.Load(),
		WALReplayed:     m.WALReplayed.Load(),
		Applied:         m.Applied.Load(),
		Rejected:        m.Rejected.Load(),
		FlushLatency:    m.FlushLatency.Snapshot(),
		OverlayAdded:    m.OverlayAdded.Load(),
		OverlayRemoved:  m.OverlayRemoved.Load(),
		Rebuilds:        m.Rebuilds.Load(),
		RebuildFailures: m.RebuildFailures.Load(),
		RebuildPanics:   m.RebuildPanics.Load(),
		RebuildDegraded: m.RebuildDegraded.Load() != 0,
	}
}

// SetMutation installs the mutation pipeline's metrics cell; every later
// Snapshot carries its point-in-time view. Nil (the default) omits the
// mutation section entirely.
func (m *DBMetrics) SetMutation(mm *MutationMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mutation = mm
}

// writeProm renders the mutation families for WriteProm.
func (s *MutationSnapshot) writeProm(p *promWriter) {
	p.int(p.family("wal_appends_total", "Group-commit batches appended to the write-ahead log.", "counter"), s.WALAppends)
	p.int(p.family("wal_bytes_total", "Bytes appended to the write-ahead log.", "counter"), s.WALBytes)
	p.int(p.family("wal_fsyncs_total", "WAL fsyncs issued (group commits plus Flush barriers).", "counter"), s.WALFsyncs)
	p.int(p.family("wal_errors_total", "Failed WAL appends or syncs; the batch was rejected and rolled back.", "counter"), s.WALErrors)
	p.int(p.family("wal_replayed_total", "Mutation ops recovered from the WAL at startup.", "counter"), s.WALReplayed)
	p.int(p.family("mutations_applied_total", "Edge mutations applied to the live overlay.", "counter"), s.Applied)
	p.int(p.family("mutations_rejected_total", "Edge mutations refused (validation or WAL failure).", "counter"), s.Rejected)
	f := p.family("mutation_flush_latency_seconds", "Group-commit flush latency, submit to durable.", "histogram")
	p.histogram(f, &s.FlushLatency)
	f = p.family("overlay_edges", "Delta-overlay size by kind: edges the frozen index does not reflect yet.", "gauge")
	p.int(f, s.OverlayAdded, "kind", "added")
	p.int(f, s.OverlayRemoved, "kind", "removed")
	p.int(p.family("rebuilds_total", "Background reindexes published via hot swap.", "counter"), s.Rebuilds)
	p.int(p.family("rebuild_failures_total", "Background reindex attempts that failed.", "counter"), s.RebuildFailures)
	p.int(p.family("rebuild_panics_total", "Background reindex attempts that panicked (contained).", "counter"), s.RebuildPanics)
	degraded := int64(0)
	if s.RebuildDegraded {
		degraded = 1
	}
	p.int(p.family("rebuild_degraded", "1 while reindex retries are exhausted and the overlay grows unmerged.", "gauge"), degraded)
}

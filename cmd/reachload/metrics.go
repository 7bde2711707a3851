package main

// metric is one line of the benchmark's contract. BENCHMARK.json at the
// repository root repeats these tables and metrics_test.go holds the two
// together; benchmark/README.md says what each metric means and which
// end-to-end metric, on which workload, a layer metric is expected to move.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is reported by every workload's untraced run.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"index_bytes_per_vertex", "B", "lower", 0.005},
}

// perLayer is reported by every workload's traced run.
var perLayer = []metric{
	// The workload's own tail, measured in the untraced half of the traced
	// run. It is here and not above because on this class of box it does
	// not repeat within any bound the contract allows (see the README).
	{"lat_p99_us", "us", "lower", 0},
	{"obs.trace_overhead_share", "share", "lower", 0},

	{"client.reach_p50_us", "us", "lower", 0},
	{"client.batch_p50_us", "us", "lower", 0},
	{"server.transport_us", "us", "lower", 0},
	{"server.transport_batch_us", "us", "lower", 0},
	{"server.handler_reach_us", "us", "lower", 0},
	{"server.handler_batch_us", "us", "lower", 0},
	{"server.accepted", "count", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.boot_parse_s", "s", "lower", 0},
	{"server.rss_peak_mb", "MB", "lower", 0},
	{"obs.default_telemetry_us", "us", "lower", 0},
	{"obs.metrics_overhead_ns", "ns", "lower", 0},

	{"db.reach_neg_ns", "ns", "lower", 0},
	{"db.reach_pos_ns", "ns", "lower", 0},
	{"db.overhead_ns", "ns", "lower", 0},
	{"db.build_s", "s", "lower", 0},
	{"db.build.condense_s", "s", "lower", 0},
	{"db.build.index_s", "s", "lower", 0},
	{"db.query_lcr_ns", "ns", "lower", 0},
	{"db.query_rlc_ns", "ns", "lower", 0},

	{"index.probe_neg_ns", "ns", "lower", 0},
	{"index.probe_pos_ns", "ns", "lower", 0},
	{"index.decided_share", "share", "higher", 0},
	{"index.fallback_visited_per_query", "count", "lower", 0},
	{"index.bytes", "B", "lower", 0},
	{"index.label_bytes", "B", "lower", 0},

	{"batch.kernel_pairs_per_s", "1/s", "higher", 0},
	{"batch.indexed_pairs_per_s", "1/s", "higher", 0},
	{"batch.decode_us", "us", "lower", 0},

	{"mutate.commit_us", "us", "lower", 0},
	{"mutate.group_size", "count", "higher", 0},
	{"mutate.wal_bytes_per_op", "B", "lower", 0},
	{"mutate.fsyncs", "count", "lower", 0},
	{"mutate.rebuilds", "count", "higher", 0},
	{"mutate.rebuild_busy_share", "share", "lower", 0},
	{"mutate.overlay_read_ns", "ns", "lower", 0},
	{"mutate.replay_s", "s", "lower", 0},
	// The readers' side of the mixed scenario. Not end-to-end metrics of
	// mixed-rw because they do not repeat within the contract's widest bound
	// (see the README): reads run twice as fast whenever the writer stalls.
	{"mutate.read_ops_per_s", "1/s", "higher", 0},
	{"mutate.read_p50_us", "us", "lower", 0},

	{"shard.build_s_k4", "s", "lower", 0},
	{"shard.batch_pairs_per_s_k1", "1/s", "higher", 0},
	{"shard.batch_pairs_per_s_k4", "1/s", "higher", 0},
	{"qcache.hit_ns", "ns", "lower", 0},
	{"qcache.miss_ns", "ns", "lower", 0},
	{"qcache.hit_share_fit", "share", "higher", 0},
	{"qcache.hit_share_spill", "share", "higher", 0},
	{"persist.warm_start_s", "s", "lower", 0},

	{"loadgen.sched_lag_p99_us", "us", "lower", 0},
	{"loadgen.backlog_max", "count", "lower", 0},
	{"loadgen.client_cpu_share", "share", "lower", 0},
	{"loadgen.calib_ns", "ns", "lower", 0},
	{"gen.graph_s", "s", "lower", 0},
}

// unitOf gives every metric's unit.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, d := range list {
			m[d.name] = d.unit
		}
	}
	return m
}()

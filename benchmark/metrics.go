package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repo root declares the same names and units, plus direction and bound; a
// test holds the two lists equal.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of untraced passes. Every one is defined on every
// workload and is never zero. Host-time metrics are the median over the
// run's passes; the others are exact for a seed and identical on every pass.
var endToEnd = []metricDef{
	{"wall_s", "s"},             // host seconds inside the Sim.Run calls of one pass
	{"setup_s", "s"},            // host seconds in the set-up boundaries of one pass
	{"allocs_per_sim_s", "1/s"}, // heap allocations of one pass per simulated second
	{"alloc_mb", "MB"},          // bytes allocated by one pass, in 1e6 B
	{"ttl_median_ms", "ms"},     // simulated ms, injection → first correct verdict
	{"exact_ratio", "ratio"},    // exact verdicts / failures injected
}

// perLayer are the metrics of the traced pass, the probes that follow it and
// the CPU profile recorded around it. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_max", "count"},
	{"sim.cpu_share", "ratio"},
	{"sim.probe.churn_ns", "ns"},
	{"sim.probe.timer_stop_ns", "ns"},
	{"sim.probe.allocs_per_op", "count"},
	{"sim.est_s", "s"},

	{"netsim.pkts_sent", "count"},
	{"netsim.pkts_delivered", "count"},
	{"netsim.delivered_ratio", "ratio"},
	{"netsim.failure_drops", "count"},
	{"netsim.congestion_drops", "count"},
	{"netsim.queue_bytes_max", "B"},
	{"netsim.pool_reuse_ratio", "ratio"},
	{"netsim.routes_max", "count"},
	{"netsim.cpu_share", "ratio"},
	{"netsim.probe.link_hop_ns", "ns"},
	{"netsim.probe.switch_fwd_ns", "ns"},
	{"netsim.probe.lookup_ns", "ns"},
	{"netsim.est_s", "s"},

	{"tcp.flows_started", "count"},
	{"tcp.flows_completed", "count"},
	{"tcp.segments_sent", "count"},
	{"tcp.retransmits", "count"},
	{"tcp.timeouts", "count"},
	{"tcp.cpu_share", "ratio"},
	{"tcp.probe.segment_ns", "ns"},
	{"tcp.est_s", "s"},

	{"traffic.synthesize_s", "s"},
	{"traffic.flows", "count"},
	{"traffic.udp_pkts", "count"},
	{"traffic.cpu_share", "ratio"},

	{"fancy.sessions", "count"},
	{"fancy.ctl_msgs", "count"},
	{"fancy.ctl_bytes", "B"},
	{"fancy.retransmits", "count"},
	{"fancy.sessions_discarded", "count"},
	{"fancy.detector_events", "count"},
	{"fancy.cpu_share", "ratio"},
	{"fancy.probe.egress_dedicated_ns", "ns"},
	{"fancy.probe.egress_tree_ns", "ns"},
	{"fancy.probe.ingress_tagged_ns", "ns"},
	{"fancy.est_s", "s"},

	{"wire.cpu_share", "ratio"},
	{"wire.probe.marshal_report_ns", "ns"},
	{"wire.probe.unmarshal_report_ns", "ns"},
	{"wire.probe.allocs_per_op", "count"},

	{"hh.reports", "count"},
	{"hh.promotions", "count"},
	{"hh.demotions", "count"},
	{"hh.deferred", "count"},
	{"hh.decode_errors", "count"},
	{"hh.cpu_share", "ratio"},
	{"hh.probe.observe_ns", "ns"},
	{"hh.probe.decode_report_ns", "ns"},

	{"mgmt.dgrams_sent", "count"},
	{"mgmt.dgrams_lost", "count"},
	{"mgmt.delivered_ratio", "ratio"},
	{"mgmt.report_retries", "count"},
	{"mgmt.heartbeats", "count"},
	{"mgmt.duplicates_suppressed", "count"},
	{"mgmt.holes", "count"},
	{"mgmt.cpu_share", "ratio"},
	{"mgmt.probe.report_ns", "ns"},
	{"mgmt.est_s", "s"},

	{"fleet.new_s", "s"},
	{"fleet.snapshot_s", "s"},
	{"fleet.alarms", "count"},
	{"fleet.suppressed", "count"},
	{"fleet.localizations", "count"},
	{"fleet.reroutes", "count"},
	{"fleet.checkpoints", "count"},
	{"fleet.elections", "count"},
	{"fleet.failovers", "count"},
	{"fleet.commit_index", "count"},
	{"fleet.wire_rejects", "count"},
	{"fleet.get_fails", "count"},
	{"fleet.cpu_share", "ratio"},

	{"verify.checked", "count"},
	{"verify.atoms_checked", "count"},
	{"verify.rejected", "count"},
	{"verify.repaired", "count"},
	{"verify.fallbacks", "count"},
	{"verify.model_atoms", "count"},
	{"verify.cpu_share", "ratio"},
	{"verify.probe.new_model_ns", "ns"},
	{"verify.probe.check_ns", "ns"},

	{"topo.build_s", "s"},
	{"topo.install_paths_s", "s"},
	{"topo.switches", "count"},
	{"topo.directed_links", "count"},
	{"topo.cpu_share", "ratio"},

	{"telemetry.cpu_share", "ratio"},

	{"go.gc_bg_cpu_share", "ratio"},
	{"go.gc_cycles", "count"},
	{"go.heap_peak_mb", "MB"},
	{"go.mallocs", "count"},
	{"go.alloc_bytes", "B"},

	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.unattributed_cpu_share", "ratio"},

	// The verdicts themselves: outcomes that are exact for a seed but are
	// not end-to-end metrics, because they are undefined on some workload
	// (no reroute on a single link), expected to be zero (false verdicts),
	// or tail statistics of too few samples to be steady across seeds.
	{"verdict.samples", "count"},
	{"verdict.ttl_p90_ms", "ms"},
	{"verdict.ttl_max_ms", "ms"},
	{"verdict.reroute_samples", "count"},
	{"verdict.reroute_median_ms", "ms"},
	{"verdict.false", "count"},
}

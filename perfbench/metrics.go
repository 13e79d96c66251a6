package main

import "repro/internal/message"

// metricDef is one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the untraced run's metrics: what a user running the
// workload pays.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, grouped by the layer whose
// boundary they are measured at.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"sim.events", "count", "lower"},
		{"sim.events_per_s", "1/s", "higher"},
		{"sim.windows", "count", "lower"},
		{"sim.events_per_window", "count", "higher"},
		{"sim.window_ms.p50", "ms", "lower"},
		{"sim.window_ms.p_hi", "ms", "lower"},
		{"sim.pending_peak", "count", "lower"},
		{"sim.routes_max", "count", "lower"},
		{"sim.message_event_share", "ratio", "lower"},
	}
	for _, op := range coreOps() {
		m = append(m, metricDef{opNames[op] + ".count", "count", "lower"},
			metricDef{opNames[op] + ".self_ns", "ns", "lower"})
	}
	m = append(m,
		metricDef{"core.new_s", "s", "lower"},
		metricDef{"core.shard_busy.max_over_mean", "ratio", "lower"},
		metricDef{"core.grants.local", "count", "higher"},
		metricDef{"core.grants.update", "count", "lower"},
		metricDef{"core.grants.search", "count", "lower"},
		metricDef{"core.drops", "count", "lower"},
		metricDef{"core.update_attempts", "count", "lower"},
		metricDef{"core.update_success_ratio", "ratio", "higher"},
		metricDef{"core.deferred", "count", "lower"},
		metricDef{"core.mode_changes", "count", "lower"},
		metricDef{"driver.new_parallel_s", "s", "lower"},
	)
	for _, op := range []opID{opSend, opResult, opAfter} {
		m = append(m, metricDef{opNames[op] + ".count", "count", "lower"},
			metricDef{opNames[op] + ".self_ns", "ns", "lower"})
	}
	m = append(m,
		metricDef{"driver.msgs_per_grant", "ratio", "lower"},
		metricDef{"driver.stats_merge_ms", "ms", "lower"},
		metricDef{"driver.check_ms", "ms", "lower"},
		metricDef{"traffic.prime_s", "s", "lower"},
		metricDef{"traffic.finish_s", "s", "lower"},
		metricDef{"traffic.run_s", "s", "lower"},
		metricDef{"traffic.drain_s", "s", "lower"},
		metricDef{"traffic.offered", "count", "higher"},
		metricDef{"traffic.blocked", "count", "lower"},
		metricDef{"traffic.handoff_attempts", "count", "higher"},
		metricDef{"traffic.handoff_drops", "count", "lower"},
		metricDef{"hexgrid.new_s", "s", "lower"},
		metricDef{"chanset.assign_s", "s", "lower"},
		metricDef{"chanset.primaries_min", "count", "higher"},
		metricDef{"chanset.primaries_max", "count", "higher"},
		metricDef{"registry.build_s", "s", "lower"},
		metricDef{"gc.cycles", "count", "lower"},
		metricDef{"gc.cpu_fraction", "ratio", "lower"},
		metricDef{"gc.pause_ms", "ms", "lower"},
		metricDef{"heap.allocs_per_event", "count", "lower"},
		metricDef{"heap.alloc_bytes_per_event", "B", "lower"},
		metricDef{"heap.bytes_per_cell.wired", "B", "lower"},
		metricDef{"heap.bytes_per_cell.primed", "B", "lower"},
		metricDef{"heap.bytes_per_cell.peak", "B", "lower"},
		metricDef{"adca.new_s", "s", "lower"},
		metricDef{"adca.run_workload_s", "s", "lower"},
		metricDef{"adca.msgs_per_call", "ratio", "lower"},
		metricDef{"trace.overhead", "ratio", "lower"},
		metricDef{"trace.covered_cpu_share", "ratio", "higher"},
	)
	return m
}()

// coreOps are the allocator entry points reported per op: request,
// release and the five protocol message kinds (ACK belongs to the
// reliability layer and never reaches an allocator).
func coreOps() []opID {
	ops := []opID{opRequest, opRelease}
	for k := message.Request; k <= message.Release; k++ {
		ops = append(ops, opHandle+opID(k))
	}
	return ops
}

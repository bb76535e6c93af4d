package main

// def names one metric. Bounds are not here: they are measured by
// -calibrate and live in BENCHMARK.json.
type def struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a caller of the device sees, measured through the
// public API with nothing recorded. Every workload reports every one of
// them, so each is defined on every workload: see README.md for what a
// read, a write and an op are in each.
var endToEnd = []def{
	{"setup_s", "s", lower},
	{"ops_per_s", "1/s", higher},
	{"read_p50_us", "us", lower},
	{"write_p50_us", "us", lower},
	{"allocs_per_op", "count", lower},
	{"peak_rss_mb", "MiB", lower},
}

// perLayer is what the traced pass reports. Direction says which way is
// good; nothing here is compared against a bound.
var perLayer = []def{
	{"scheme.read_self_us", "us", lower},
	{"scheme.write_self_us", "us", lower},
	{"obs.share_lock_wait", "ratio", lower},
	{"obs.share_fanout", "ratio", lower},
	{"obs.share_rpc", "ratio", lower},
	{"obs.share_local", "ratio", lower},
	{"span.share_fanout", "ratio", lower},
	{"span.share_rpc", "ratio", lower},
	{"transport.calls_per_read", "count", lower},
	{"transport.calls_per_write", "count", lower},
	{"transport.self_us", "us", lower},
	{"simnet.msgs_per_read", "count", lower},
	{"simnet.msgs_per_write", "count", lower},
	{"simnet.bytes_per_op", "B", lower},
	{"site.handles_per_op", "count", lower},
	{"site.handle_self_us", "us", lower},
	{"store.writes_per_op", "count", lower},
	{"store.write_p50_us", "us", lower},
	{"store.sync_p50_us", "us", lower},
	{"store.sync_p90_us", "us", lower},
	{"store.syncs_per_write", "count", lower},
	{"store.batch_mean", "count", higher},
	{"store.write_minus_sync_us", "us", lower},
	{"store.disk_bytes_per_user_byte", "ratio", lower},
	{"store.log_bytes_per_live_byte", "ratio", lower},
	{"recover.open_ms", "ms", lower},
	{"recover.exchange_ms", "ms", lower},
	{"recover.p50_ms", "ms", lower},
	{"recover.p90_ms", "ms", lower},
	{"client.degraded_write_p50_us", "us", lower},
	{"client.read_p90_us", "us", lower},
	{"client.write_p90_us", "us", lower},
	{"client.read_p99_us", "us", lower},
	{"client.write_p99_us", "us", lower},
	{"client.samples", "count", higher},
	{"cpu.user_us_per_op", "us", lower},
	{"cpu.sys_us_per_op", "us", lower},
	{"gc.cycles_per_kop", "count", lower},
	{"gc.pause_ms", "ms", lower},
	{"alloc_kb_per_op", "KiB", lower},
	{"calib.spin_mem_ms", "ms", lower},
	{"calib.drift_pct", "%", lower},
	{"trace.overhead_pct", "%", lower},
	{"trace.assembly_gap_pct", "%", lower},
	{"trace.obs_disagreement_pts", "%", lower},
	{"trace.spans", "count", higher},
	{"trace.dropped", "count", lower},
	{"trace.violations", "count", lower},
	{"ladder.store_mem_write_ns", "ns", lower},
	{"ladder.store_seg_append_ns", "ns", lower},
	{"ladder.store_seg_append_512_ns", "ns", lower},
	{"ladder.store_seg_sync_p50_us", "us", lower},
	{"ladder.store_seg_sync_p90_us", "us", lower},
	{"ladder.store_file_write_us", "us", lower},
	{"ladder.batcher_write_us", "us", lower},
	{"ladder.codec_put_enc_ns", "ns", lower},
	{"ladder.codec_put_dec_ns", "ns", lower},
	{"ladder.codec_bytes_over_wiresize", "ratio", lower},
	{"ladder.simnet_call_ns", "ns", lower},
	{"ladder.simnet_broadcast4_ns", "ns", lower},
	{"ladder.rpcnet_call_us", "us", lower},
	{"ladder.locks_op_ns", "ns", lower},
	{"ladder.obs_op_ns", "ns", lower},
	{"ladder.site_put_ns", "ns", lower},
	{"ladder.write_sum_ratio", "ratio", higher},
}

// selectMetrics cuts a run's values down to the named metrics. A metric the
// workload has nothing to say about (a simnet count on a TCP cluster)
// reads 0.
func selectMetrics(defs []def, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

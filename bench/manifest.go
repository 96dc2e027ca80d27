package main

// metric is one named number the benchmark reports. bound is the share
// of the parent's median by which an end-to-end metric may get worse
// before a change counts as a regression; per-layer metrics have none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the system sees; every workload
// reports all of them, measured with tracing off. fail_ratio is the
// sixth: it is 0 on every workload by construction, so the manifest
// cannot carry it as a metric and the runner reports it as
// failed/attempted instead.
//
// The bounds come from measurement on the 2-core box (README.md has the
// tables). The driver refuses a benchmark when the spread between the
// quartiles of ten runs, on any workload, exceeds the bound, so each
// bound is the spread that 99 in 100 such draws stay within, resampled
// from ten-run sweeps on one seed and on ten seeds; a narrower bound
// would reject a change, and this benchmark, for the box's own noise.
var endToEndMetrics = []metric{
	{"ops_per_s", "1/s", "higher", 0.17},
	{"p50_ms", "ms", "lower", 0.12},
	{"p95_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// maxFailRatio is the fail_ratio above which a run is not correct.
const maxFailRatio = 0.001

var codecNames = []string{"xmlrpc", "jsonrpc", "soaprpc"}

// perLayerMetrics are the ledger of single layers, one prefix per
// module. Counts and process-level numbers come from the bookkeeping
// of a normal closed-loop window, timings from the traced run.
var perLayerMetrics = func() []metric {
	m := []metric{
		{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "proc.alloc_kib_per_op", Unit: "KiB", Better: "lower"},
		{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "proc.peak_rss_mib", Unit: "MiB", Better: "lower"},
		{Name: "proc.cpu_busy_ratio", Unit: "ratio", Better: "lower"},
		{Name: "client.call_us", Unit: "us", Better: "lower"},
		{Name: "client.self_us", Unit: "us", Better: "lower"},
		{Name: "client.p99_ms", Unit: "ms", Better: "lower"},
		{Name: "client.conns_opened_per_op", Unit: "ratio", Better: "lower"},
		{Name: "client.tls_resumed_ratio", Unit: "ratio", Better: "higher"},
		{Name: "transport.self_us", Unit: "us", Better: "lower"},
		{Name: "transport.wire_bytes_per_op", Unit: "bytes", Better: "lower"},
		{Name: "transport.handshake_full_us", Unit: "us", Better: "lower"},
		{Name: "transport.handshake_resumed_us", Unit: "us", Better: "lower"},
		{Name: "pki.verify_proxy_us", Unit: "us", Better: "lower"},
		{Name: "rpc.normalize_us", Unit: "us", Better: "lower"},
	}
	for _, c := range codecNames {
		for _, step := range []string{"encode_request", "decode_request", "encode_response", "decode_response"} {
			m = append(m, metric{Name: "rpc." + c + "." + step + "_us", Unit: "us", Better: "lower"})
		}
		m = append(m, metric{Name: "rpc." + c + ".allocs_per_roundtrip", Unit: "count", Better: "lower"})
	}
	return append(m,
		metric{Name: "core.serve_http_us", Unit: "us", Better: "lower"},
		metric{Name: "core.dispatch_us", Unit: "us", Better: "lower"},
		metric{Name: "core.pipeline_us", Unit: "us", Better: "lower"},
		metric{Name: "core.dispatch_allocs", Unit: "count", Better: "lower"},
		metric{Name: "core.requests_per_op", Unit: "count", Better: "lower"},
		metric{Name: "core.faults", Unit: "count", Better: "lower"},
		metric{Name: "session.get_ns", Unit: "ns", Better: "lower"},
		metric{Name: "session.new_us", Unit: "us", Better: "lower"},
		metric{Name: "acl.authorize_ns", Unit: "ns", Better: "lower"},
		metric{Name: "acl.authorize_after_set_us", Unit: "us", Better: "lower"},
		metric{Name: "vo.is_member_ns", Unit: "ns", Better: "lower"},
		metric{Name: "vo.is_member_after_write_us", Unit: "us", Better: "lower"},
		metric{Name: "db.get_ns", Unit: "ns", Better: "lower"},
		metric{Name: "db.put_us", Unit: "us", Better: "lower"},
		metric{Name: "db.wal_bytes_per_put", Unit: "bytes", Better: "lower"},
		metric{Name: "telemetry.observe_rpc_ns", Unit: "ns", Better: "lower"},
		metric{Name: "telemetry.span_record_ns", Unit: "ns", Better: "lower"},
		metric{Name: "pubsub.publish_ns", Unit: "ns", Better: "lower"},
		metric{Name: "pubsub.dropped", Unit: "count", Better: "lower"},
		metric{Name: "pubsub.delivery_ms", Unit: "ms", Better: "lower"},
		metric{Name: "ws.echo_roundtrip_us", Unit: "us", Better: "lower"},
		metric{Name: "jobsvc.submit_us", Unit: "us", Better: "lower"},
		metric{Name: "jobsvc.queue_wait_ms", Unit: "ms", Better: "lower"},
		metric{Name: "jobsvc.run_ms", Unit: "ms", Better: "lower"},
		metric{Name: "jobsvc.events_per_job", Unit: "count", Better: "lower"},
		metric{Name: "shellsvc.exec_us", Unit: "us", Better: "lower"},
		metric{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	)
}()

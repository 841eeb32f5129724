package main

// The metric and workload tables. BENCHMARK.json at the repository root
// declares the same names, units, directions and bounds for the driver;
// TestManifestMatchesTables fails when the two drift apart.

// runSeconds is the timed-phase length BENCHMARK.json asks the driver for.
// Every fixed op count below (warm-up, batch, probe) is sized for it; a
// shorter --seconds shrinks them in proportion so smoke tests stay quick.
const runSeconds = 12

type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.05},
	{"allocs_per_op", "1", "lower", 0.05},
	{"ok_ratio", "1", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists every per-layer metric. A workload that does not execute a
// layer reports 0 for it: the driver wants the same name set from every
// traced run.
var perLayer = []metricDef{
	{name: "des.events_per_op", unit: "count", better: "lower"},
	{name: "des.event_ns", unit: "ns", better: "lower"},
	{name: "des.share", unit: "1", better: "lower"},
	{name: "des.shard2_slowdown", unit: "1", better: "lower"},
	{name: "des.windows_per_op", unit: "count", better: "lower"},
	{name: "network.msgs_per_op", unit: "count", better: "lower"},
	{name: "network.bytes_per_op", unit: "B", better: "lower"},
	{name: "network.msg_ns", unit: "ns", better: "lower"},
	{name: "network.share", unit: "1", better: "lower"},
	{name: "protocol.estimates_per_op", unit: "count", better: "lower"},
	{name: "protocol.estimate_ns", unit: "ns", better: "lower"},
	{name: "protocol.share", unit: "1", better: "lower"},
	{name: "protocol.sample_peers_ns", unit: "ns", better: "lower"},
	{name: "core.rounds_per_op", unit: "count", better: "lower"},
	{name: "core.converge_ns", unit: "ns", better: "lower"},
	{name: "core.share", unit: "1", better: "lower"},
	{name: "metrics.samples_per_op", unit: "count", better: "lower"},
	{name: "metrics.sample_ns", unit: "ns", better: "lower"},
	{name: "metrics.share", unit: "1", better: "lower"},
	{name: "scenario.build_us", unit: "us", better: "lower"},
	{name: "scenario.unaccounted_share", unit: "1", better: "lower"},
	{name: "campaign.generate_us_per_run", unit: "us", better: "lower"},
	{name: "campaign.worker_util", unit: "1", better: "higher"},
	{name: "campaign.w1_ops_per_s", unit: "1/s", better: "higher"},
	{name: "check.overhead_share", unit: "1", better: "lower"},
	{name: "livenet.read_ns", unit: "ns", better: "lower"},
	{name: "livenet.codec_ns", unit: "ns", better: "lower"},
	{name: "livenet.mem_hop_ns", unit: "ns", better: "lower"},
	{name: "livenet.serve_unaccounted_ns", unit: "ns", better: "lower"},
	{name: "livenet.udp_hop_us", unit: "us", better: "lower"},
	{name: "livenet.query_client_us", unit: "us", better: "lower"},
	{name: "livenet.query_p50_us", unit: "us", better: "lower"},
	{name: "livenet.query_p99_us", unit: "us", better: "lower"},
	{name: "livenet.serve_bad", unit: "count", better: "lower"},
	{name: "livenet.serve_dropped", unit: "count", better: "lower"},
	{name: "livenet.round_p50_us", unit: "us", better: "lower"},
	{name: "livenet.round_p99_us", unit: "us", better: "lower"},
	{name: "livenet.estimate_rtt_p50_us", unit: "us", better: "lower"},
	{name: "livenet.msgs_per_round", unit: "count", better: "lower"},
	{name: "livenet.retries_per_round", unit: "count", better: "lower"},
	{name: "obs.trace_overhead_share", unit: "1", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "1", better: "lower"},
	{name: "runtime.gc_cycles_per_op", unit: "count", better: "lower"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "runtime.sched_latency_p99_us", unit: "us", better: "lower"},
	{name: "harness.batches", unit: "count", better: "higher"},
	{name: "harness.batch_iqr_rel", unit: "1", better: "lower"},
	{name: "harness.loadavg_start", unit: "1", better: "lower"},
}

type workloadDef struct {
	name string
	why  string
	new  func(r *run) workload
}

var workloads = []workloadDef{
	{"sim_mesh_n64",
		"one simulated minute of a 64-node full mesh on the serial engine: 48k cheap events per op, protocol+core+network bound",
		func(r *run) workload { return newSimMesh(r) }},
	{"sim_sampled_n1024",
		"one simulated minute at n=1024 with 31 sampled peers through the sharded machinery at one shard: deep queue, 38 MB heap per op",
		func(r *run) workload { return newSimSampled(r) }},
	{"campaign_mixed",
		"512-run adversary campaigns on two workers, seed to verdict: short n=7 runs, Sim.Reset, generated schedules, online checker",
		func(r *run) workload { return newCampaignMixed(r) }},
	{"serve_udp_query",
		"one closed-loop Client.Query at a time over loopback UDP: kernel crossings and goroutine wake-ups, what a time client sees",
		func(r *run) workload { return newServeUDP(r) }},
	{"serve_mem_pipelined",
		"raw serve exchanges over MemNetwork with 64 in flight: saturates serveLoop, codec and Node.Read with no kernel in the path",
		func(r *run) workload { return newServeMem(r) }},
	{"live_round_n7",
		"7 live nodes running Sync every 20 ms over loopback UDP: paced, so CPU and allocation per round are what code changes move",
		func(r *run) workload { return newLiveRound(r) }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

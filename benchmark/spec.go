package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDecl declares one metric: its name, unit and direction, and
// for an end-to-end metric the share of the parent's median by which
// it may worsen before a change counts as a regression.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator pays for one pass of a
// workload. BENCHMARK.json repeats this table; the test keeps the two
// equal. The bounds are sized to what ten runs at ten seeds spread on
// the shared 2-vCPU reference box (README.md, "Noise"): host timings
// there drift 5–15% over minutes whatever a run does, the allocation
// counters move about 1% with the seed, and paper_err_max is exact.
var endToEnd = []metricDecl{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"mallocs", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"paper_err_max", "util_points", "lower", 0.10},
}

// stackPkgs maps each registered stack to the package that implements
// it, which prefixes its per-layer metrics.
var stackPkgs = []struct{ stack, pkg string }{
	{"AMRT", "core"}, {"pHost", "phost"}, {"Homa", "homa"},
	{"NDP", "ndp"}, {"SIRD", "sird"}, {"DCTCP", "dctcp"},
}

// perLayer lists every metric of the traced run, prefix = package.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	lo := func(name, unit string) metricDecl { return metricDecl{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDecl { return metricDecl{Name: name, Unit: unit, Better: "higher"} }
	out := []metricDecl{
		lo("sim.hold_ns_wheel_64k", "ns"), lo("sim.hold_ns_heap_64k", "ns"),
		lo("sim.hold_ns_wheel_64", "ns"), lo("sim.hold_ns_heap_64", "ns"),
		lo("sim.timer_churn_ns", "ns"), lo("sim.keyed_ns", "ns"), lo("sim.allocs_per_event", "count"),

		lo("netsim.hop_ns_64B", "ns"), lo("netsim.hop_ns_1500B", "ns"), lo("netsim.ecmp_hop_ns", "ns"),
		lo("netsim.allocs_per_hop", "count"), lo("netsim.bytes_per_hop", "B"), lo("netsim.marker_ns", "ns"),
		lo("netsim.queue_ns_droptail", "ns"), lo("netsim.queue_ns_priority", "ns"), lo("netsim.queue_ns_trimming", "ns"),
		hi("netsim.shard_speedup_2", "ratio"), hi("netsim.shard_efficiency_2", "ratio"), lo("netsim.shard_cpu_ratio_2", "ratio"),

		lo("transport.pacer_kick_ns", "ns"), lo("transport.pacer_allocs_per_kick", "count"), lo("transport.newdata_ns", "ns"),
	}
	for _, s := range stackPkgs {
		out = append(out, lo(s.pkg+".bulk_ns_per_pkt", "ns"), lo(s.pkg+".small_us_per_flow", "us"))
	}
	return append(out,
		lo("metrics.overhead_ratio", "ratio"), lo("audit.overhead_ratio", "ratio"), lo("trace.overhead_ratio", "ratio"),
		lo("metrics.dump_json_ms", "ms"), lo("metrics.dump_csv_ms", "ms"), lo("trace.write_csv_ms", "ms"),
		lo("trace.events", "count"), lo("audit.checks", "count"), lo("audit.violations", "count"),
		lo("faults.overhead_ratio", "ratio"), lo("faults.parse_us", "us"),

		lo("topo.build_ms_leafspine", "ms"), lo("topo.build_ms_fattree8", "ms"),
		lo("workload.gen_ms_poisson", "ms"), lo("workload.gen_ms_incast", "ms"),
		lo("experiment.empty_run_ms_leafspine", "ms"),
		lo("experiment.empty_run_ms_fattree8_s1", "ms"), lo("experiment.empty_run_ms_fattree8_s2", "ms"),

		lo("experiment.events", "count"), hi("experiment.events_per_s", "1/s"), hi("experiment.run_share", "ratio"),
		hi("experiment.util", "ratio"), lo("experiment.afct_us", "us"), lo("experiment.p99_us", "us"),
		lo("experiment.drops", "count"), hi("experiment.completed", "count"),

		lo("campaign.cache_put_us", "us"), lo("campaign.cache_get_us", "us"), lo("campaign.cache_miss_us", "us"),
		lo("campaign.key_us", "us"), lo("campaign.orchestrate_us_per_point", "us"), hi("campaign.hit_ratio", "ratio"),
		lo("campaign.point_ms_p50", "ms"), lo("campaign.point_ms_max", "ms"),

		lo("server.job_roundtrip_ms", "ms"), lo("server.replay_ms", "ms"),

		lo("go.gc_cpu_share", "ratio"), lo("go.gc_cycles", "count"),

		lo("bench.trace_overhead_share", "ratio"), lo("bench.generator_share", "ratio"),
	)
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

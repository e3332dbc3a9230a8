package main

// The declared metrics. BENCHMARK.json at the repository root repeats
// the names, units, directions and bounds (TestBenchmarkJSON keeps the
// two in step); this table adds the clock each number is read from.
//
// Two clocks, never mixed: a virtual metric describes the code the
// compiler generated and repeats exactly; a host metric describes how
// fast our own compiler, executor and engine run and carries a noise
// bound; a count is a deterministic tally.

type clock string

const (
	virtual clock = "virtual"
	host    clock = "host"
	count   clock = "count"
)

type metricDef struct {
	Name   string
	Unit   string
	Clock  clock
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// The host bounds are three times the widest run-to-run spread seen on
// any workload when the benchmark was written (README.md, "Host noise");
// virt_us repeats exactly, and its bound of one part in 10^9 means "any
// increase" (the smallest step of the cost model is 0.1 simulated µs).
var endToEnd = []metricDef{
	{"setup_s", "s", host, "lower", 0.25},
	{"compile_s", "s", host, "lower", 0.25},
	{"run_s", "s", host, "lower", 0.25},
	{"virt_us", "sim_us", virtual, "lower", 1e-9},
	{"alloc_mb", "MB", host, "lower", 0.02},
}

var perLayer = []metricDef{
	// what every host time of the run was divided by (calib.go)
	{"host.drift", "ratio", host, "lower", 0},

	{"parser.parse_s", "s", host, "lower", 0},
	{"parser.src_mb_per_s", "MB/s", host, "higher", 0},

	{"core.compile_s", "s", host, "lower", 0},
	{"core.acg_s", "s", host, "lower", 0},
	{"core.reach_s", "s", host, "lower", 0},
	{"core.sections_s", "s", host, "lower", 0},
	{"core.overlap_est_s", "s", host, "lower", 0},
	{"core.symconst_s", "s", host, "lower", 0},
	{"core.phase3_s", "s", host, "lower", 0},
	{"core.compile_jobs2_s", "s", host, "lower", 0},
	{"core.messages", "count", count, "lower", 0},
	{"core.guards", "count", count, "lower", 0},
	{"core.loops_reduced", "count", count, "higher", 0},
	{"core.remaps", "count", count, "lower", 0},
	{"core.cloned", "count", count, "lower", 0},
	{"core.listing_bytes", "bytes", count, "lower", 0},
	{"core.virt_vs_hand", "ratio", virtual, "lower", 0},

	{"sched.apply_s", "s", host, "lower", 0},
	{"sched.sites", "count", count, "higher", 0},

	{"summarycache.warm_compile_s", "s", host, "lower", 0},
	{"summarycache.edit_compile_s", "s", host, "lower", 0},
	{"summarycache.hit_rate", "ratio", count, "higher", 0},
	{"summarycache.edit_misses", "count", count, "lower", 0},

	{"spmd.run_s", "s", host, "lower", 0},
	{"spmd.self_s", "s", host, "lower", 0},
	{"spmd.self_share", "ratio", host, "lower", 0},
	{"spmd.host_ns_per_flop", "ns", host, "lower", 0},
	{"spmd.allocs_per_run", "count", host, "lower", 0},
	{"spmd.ref_run_s", "s", host, "lower", 0},
	{"spmd.traced_run_s", "s", host, "lower", 0},
	{"spmd.trace_overhead", "ratio", host, "lower", 0},

	{"machine.replay_s", "s", host, "lower", 0},
	{"machine.host_ns_per_msg", "ns", host, "lower", 0},
	{"machine.msgs", "count", virtual, "lower", 0},
	{"machine.words", "count", virtual, "lower", 0},
	{"machine.remap_msgs", "count", virtual, "lower", 0},
	{"machine.flops", "count", virtual, "lower", 0},
	{"machine.blocked_share", "ratio", virtual, "lower", 0},
	{"machine.imbalance", "ratio", virtual, "lower", 0},

	{"profile.distill_s", "s", host, "lower", 0},
	{"profile.events", "count", count, "lower", 0},
	{"profile.bytes", "bytes", count, "lower", 0},

	{"service.ops_per_s", "1/s", host, "higher", 0},
	{"service.compile_p50_s", "s", host, "lower", 0},
	{"service.compile_p95_s", "s", host, "lower", 0},
	{"service.run_p50_s", "s", host, "lower", 0},
	{"service.run_p95_s", "s", host, "lower", 0},
	{"service.run_profiled_p50_s", "s", host, "lower", 0},
	{"service.run_solo_s", "s", host, "lower", 0},
	{"service.rejected", "count", count, "lower", 0},
	{"service.profiles_stored", "count", host, "higher", 0}, // grows with the sessions a run has time for
}

// workloadNames lists the five workloads in reporting order; the "why"
// of each is in BENCHMARK.json and README.md.
var workloadNames = []string{
	"dgefa_p1024", "jacobi2d_p16", "dyndist_p256", "compile_synth256", "svc_recompile",
}

package main

import (
	"encoding/json"
	"io"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (d metricDef) higher() bool { return d.Better == "higher" }

// endToEndMetrics are what a user of the system sees, every one reported
// by every workload on the untraced run. Bounds are shares of the parent's
// median the metric may worsen by. The timing bounds are the widest the
// driver allows, not the 10 % the issue asked for: on the recording host
// (a shared 2-vCPU VM) whole runs shift by 10-30 % with what the
// neighbours do, for minutes at a time, and ten-run spreads of 9-25 % were
// measured on an unchanged binary (README, "Run-to-run noise").
var endToEndMetrics = []metricDef{
	{"sim_kinstr_per_s", "kinstr/s", "higher", 0.25},
	{"exp_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_kexp", "s", "lower", 0.25},
	{"campaign_s_p50", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics are the single-layer numbers of the traced run, named
// layer.metric after the package under internal/ they belong to.
var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, app := range []string{"HS", "KM", "SRAD1", "SRAD2", "LUD", "BFS", "PATHF", "NW", "GE", "BP", "VA", "SP"} {
		add("ns", "lower", "sim.ns_per_winstr."+app)
	}
	add("us", "lower", "sim.snapshot_capture_us", "sim.fork_new_us", "sim.refork_us", "sim.recycle_us")
	add("B", "lower", "sim.cow_bytes_per_exp")
	add("ratio", "lower", "sim.cow_dirty_ratio")
	add("count", "lower", "sim.cycles_total", "sim.winstr_total")

	add("ns", "lower", "cache.read_hit_ns", "cache.read_miss_ns", "cache.write_ns")
	add("us", "lower", "cache.restore_touched_us")
	add("ratio", "higher", "cache.l1d_hit_ratio", "cache.l2_hit_ratio")

	add("ns", "lower", "mem.rw32_ns")
	add("us", "lower", "mem.restore_dirty_us")

	add("ratio", "lower", "core.exec_cpu_share", "core.restore_cpu_share", "core.capture_cpu_share",
		"core.fork_cpu_share", "core.classify_cpu_share")
	add("ratio", "higher", "core.attributed_share")
	add("count", "lower", "core.captures_per_exp", "core.forks_created", "core.vessels_discarded", "core.quarantined")
	add("ms", "lower", "core.profile_ms.BP", "core.profile_ms.SRAD2", "core.plan_shards_ms")
	add("count", "lower", "core.outcome_masked", "core.outcome_sdc", "core.outcome_crash")
	add("1e-6", "lower", "core.wavf_e6.SRAD2", "core.wavf_e6.HS", "core.wavf_e6.BP", "core.wavf_e6.KM")

	add("ns", "lower", "store.encode_ns_per_rec", "store.decode_ns_per_rec", "store.journal_append_ns_per_rec")
	add("count", "lower", "store.journal_fsyncs_per_kexp")
	add("ms", "lower", "store.fsync_ms_p50", "store.resume_ms")
	add("us", "lower", "store.wal_append_sync_us")

	add("us", "lower", "shard.ingest_us_per_rec", "shard.claim_us")
	add("ms", "lower", "shard.http_batch_ms")
	add("count", "lower", "shard.batches", "shard.records_duped", "shard.reissued", "shard.lease_expiries")

	add("ms", "lower", "service.submit_ms", "service.log_fetch_ms")
	add("us", "lower", "service.status_get_us")

	add("ns", "lower", "obs.span_ns", "obs.counter_inc_ns")
	add("ratio", "lower", "obs.trace_overhead_ratio")

	add("ms", "lower", "asm.assemble_all_ms")

	add("B", "lower", "host.alloc_bytes_per_exp")
	add("count", "lower", "host.mallocs_per_exp")
	add("ratio", "lower", "host.gc_cpu_share")
	return defs
}()

// exactMetrics are the per-layer metrics that are simulated statistics or
// protocol counts: identical between two runs of one seed.
var exactMetrics = map[string]bool{
	"sim.cycles_total": true, "sim.winstr_total": true,
	"cache.l1d_hit_ratio": true, "cache.l2_hit_ratio": true,
	"core.outcome_masked": true, "core.outcome_sdc": true, "core.outcome_crash": true,
	"core.wavf_e6.SRAD2": true, "core.wavf_e6.HS": true, "core.wavf_e6.BP": true, "core.wavf_e6.KM": true,
}

// workloadWhy records why each workload is in the set.
var workloadWhy = map[string]string{
	"golden-12":       "fault-free runs of the 12 apps at scale 4: sim/cache/mem/isa only, the no-change control for engine, store and service work",
	"campaign-late":   "10000-run library campaign late in BP: short faulty suffixes, so fork/restore/recycle/classify have their largest share; no store, no HTTP",
	"eval-matrix":     "Evaluate of SRAD2/HS/BP/KM, 30 (kernel,structure) points: many short campaigns, a capture per experiment, cache and shared-memory injections",
	"service-sharded": "the campaign-late point through store + coordinator + HTTP + 2 shard workers: the gap to campaign-late is the cost of durability and distribution",
}

// runSeconds is how long the driver's runs measure.
const runSeconds = 15

// printManifest writes BENCHMARK.json from the tables above, so the file
// at the repository root is never edited by hand.
func printManifest(w io.Writer) error {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // no bound: the key is omitted
	}{
		Command:    []string{"bash", "perfledger/run.sh"},
		Paths:      []string{"perfledger"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, n := range workloadNames {
		m.Workloads = append(m.Workloads, workloadDef{n, workloadWhy[n]})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&m)
}

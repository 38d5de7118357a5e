package service

import (
	"time"

	"gpufi/internal/core"
	"gpufi/internal/obs"
)

// metrics holds the service's instruments, all registered in a per-Server
// obs.Registry so tests can run many servers in one process without
// sharing job counters. The same instruments back both views of
// GET /metrics: the flat JSON object (unchanged keys from earlier
// releases) and the Prometheus text exposition under ?format=prom, which
// additionally includes the process-wide obs.Default registry (snapshot,
// experiment and journal-fsync histograms owned by sim/core/store).
type metrics struct {
	start time.Time
	reg   *obs.Registry

	queued      *obs.Gauge   // jobs currently queued
	running     *obs.Gauge   // jobs currently running
	done        *obs.Counter // jobs completed successfully
	failed      *obs.Counter // jobs that errored
	cancelled   *obs.Counter // jobs cancelled (by request or shutdown)
	experiments *obs.Counter // experiments finished since start

	retries        *obs.Counter // job attempts re-queued after a panic
	workerPanics   *obs.Counter // panics recovered in the worker pool
	workerRestarts *obs.Counter // worker loops restarted by the supervisor
	quarantined    *obs.Counter // experiments quarantined (panic or deadline)

	planSatisfied *obs.Counter // jobs whose adaptive stop rule converged early
	planSaved     *obs.Counter // experiments skipped by adaptive early stopping

	queueWait  *obs.Histogram // seconds a job waited queued before a worker took it
	jobSeconds *obs.Histogram // seconds per job attempt, pop to terminal state
	progress   *obs.GaugeVec  // per-running-campaign completion ratio

	httpRequests *obs.CounterVec // requests by route class (bounded labels)

	// Coordinator mode only (nil otherwise): per-worker control-plane
	// activity, refreshed from Coordinator.WorkerStats on every scrape.
	// The last-seen age is what separates a slow worker (age keeps
	// resetting, merge counters crawl) from a dead one (age grows
	// monotonically while its shard waits out the lease TTL).
	shardWorkerClaims  *obs.GaugeVec
	shardWorkerBatches *obs.GaugeVec
	shardWorkerRecords *obs.GaugeVec
	shardWorkerAge     *obs.GaugeVec
}

func (m *metrics) init() {
	m.start = time.Now()
	r := obs.NewRegistry()
	m.reg = r
	m.queued = r.Gauge("gpufi_jobs_queued", "Jobs currently waiting in the queue.")
	m.running = r.Gauge("gpufi_jobs_running", "Jobs currently running.")
	m.done = r.Counter("gpufi_jobs_done_total", "Jobs completed successfully.")
	m.failed = r.Counter("gpufi_jobs_failed_total", "Jobs that ended in error.")
	m.cancelled = r.Counter("gpufi_jobs_cancelled_total", "Jobs cancelled by request or shutdown.")
	m.experiments = r.Counter("gpufi_experiments_total", "Injection experiments finished.")
	m.retries = r.Counter("gpufi_job_retries_total", "Job attempts re-queued after a panic.")
	m.workerPanics = r.Counter("gpufi_worker_panics_total", "Panics recovered at the worker boundary.")
	m.workerRestarts = r.Counter("gpufi_worker_restarts_total", "Worker loops restarted by the supervisor.")
	m.quarantined = r.Counter("gpufi_experiments_quarantined_total",
		"Experiments quarantined by the sandbox (panic or wall-clock deadline).")
	m.planSatisfied = r.Counter("gpufi_plan_campaigns_satisfied_total",
		"Adaptive campaigns whose stop rule converged before the run ceiling.")
	m.planSaved = r.Counter("gpufi_plan_experiments_saved_total",
		"Experiments never simulated because an adaptive stop rule was satisfied first.")
	m.queueWait = r.Histogram("gpufi_queue_wait_seconds",
		"Seconds a job waited in the queue before a worker picked it up.", nil)
	m.jobSeconds = r.Histogram("gpufi_job_seconds",
		"Seconds per job attempt, from queue pop to terminal state.", nil)
	m.progress = r.GaugeVec("gpufi_campaign_progress_ratio",
		"Completion ratio (done/total) per running campaign.", "id")
	m.httpRequests = r.CounterVec("gpufi_http_requests_total",
		"HTTP requests served, by route class.", "route")
	r.GaugeFunc("gpufi_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(m.start).Seconds() })

	// Mirror the process-wide engine and sandbox counters so one prom
	// scrape of the service covers the whole pipeline.
	r.GaugeFunc("gpufi_forks_created", "Fork vessels built from nothing: the device pool had none of their shape parked.",
		func() float64 { return float64(core.EngineStats().ForksCreated) })
	r.GaugeFunc("gpufi_forks_reused", "Fork vessels reused via snapshot restore.",
		func() float64 { return float64(core.EngineStats().ForksReused) })
	r.GaugeFunc("gpufi_vessels_discarded", "Poisoned fork vessels discarded by the engine.",
		func() float64 { return float64(core.EngineStats().VesselsDiscarded) })
	r.GaugeFunc("gpufi_exp_panics", "Simulator panics recovered by the experiment sandbox.",
		func() float64 { p, _, _ := core.SandboxStats(); return float64(p) })
	r.GaugeFunc("gpufi_exp_deadlines", "Experiments cut by the wall-clock deadline.",
		func() float64 { _, d, _ := core.SandboxStats(); return float64(d) })
	r.GaugeFunc("gpufi_engine_fork_seconds", "Cumulative wall-clock seconds preparing fork vessels.",
		func() float64 { return float64(core.EngineStats().ForkNanos) / 1e9 })
	r.GaugeFunc("gpufi_engine_execute_seconds", "Cumulative wall-clock seconds executing faulty runs.",
		func() float64 { return float64(core.EngineStats().ExecuteNanos) / 1e9 })
	r.GaugeFunc("gpufi_engine_classify_seconds", "Cumulative wall-clock seconds classifying outcomes.",
		func() float64 { return float64(core.EngineStats().ClassifyNanos) / 1e9 })
	r.GaugeFunc("gpufi_early_stops_inert", "Experiments ended at their injection cycle: no armed fault changed simulated state, so the run was the golden run.",
		func() float64 { return float64(core.EngineStats().EarlyStopsInert) })
	r.GaugeFunc("gpufi_early_stops_overwritten", "Experiments ended when the last corrupted register or shared-memory cell was overwritten before any read.",
		func() float64 { return float64(core.EngineStats().EarlyStopsOverwritten) })
	r.GaugeFunc("gpufi_early_stops_retired", "Experiments ended when the last corrupted cell went unread with its exiting lane or retiring CTA.",
		func() float64 { return float64(core.EngineStats().EarlyStopsRetired) })
	r.GaugeFunc("gpufi_early_stops_dead", "Experiments ended in their injection cycle: every corrupted register was dead, by the kernel's control-flow graph, where its lane stood.",
		func() float64 { return float64(core.EngineStats().EarlyStopsDead) })
	r.GaugeFunc("gpufi_restores_chained", "Experiments that ran on from the fault-free state their vessel had stopped in, inside the same launch, instead of restoring a snapshot.",
		func() float64 { return float64(core.EngineStats().RestoresChained) })
	r.GaugeFunc("gpufi_suffix_cycles_skipped", "Simulated cycles of golden-run suffix that early-stopped experiments did not execute.",
		func() float64 { return float64(core.EngineStats().SuffixCyclesSkipped) })
}

// registerShardMetrics mirrors the attached coordinator's counters into
// the per-server registry, so a prom scrape of a coordinator node covers
// the distributed control plane too. Called once from New when Options
// carries a Coordinator.
func (s *Server) registerShardMetrics() {
	co := s.opts.Coordinator
	r := s.metrics.reg
	r.GaugeFunc("gpufi_shards_planned", "Shards planned across all coordinated campaigns.",
		func() float64 { return float64(co.Stats().ShardsPlanned) })
	r.GaugeFunc("gpufi_shards_completed", "Shards fully merged.",
		func() float64 { return float64(co.Stats().ShardsCompleted) })
	r.GaugeFunc("gpufi_shards_reissued", "Shards re-issued after a lease expiry.",
		func() float64 { return float64(co.Stats().ShardsReissued) })
	r.GaugeFunc("gpufi_shard_batches", "Journal batches received from workers.",
		func() float64 { return float64(co.Stats().Batches) })
	r.GaugeFunc("gpufi_shard_records_merged", "Journal records merged into campaign stores.",
		func() float64 { return float64(co.Stats().RecordsMerged) })
	r.GaugeFunc("gpufi_shard_records_duplicate", "Journal records deduplicated as already merged.",
		func() float64 { return float64(co.Stats().RecordsDuped) })
	r.GaugeFunc("gpufi_shard_lease_expiries", "Leases that expired without completing their shard.",
		func() float64 { return float64(co.Stats().LeaseExpiries) })
	r.GaugeFunc("gpufi_shards_retired", "Shards retired early by a satisfied stop rule.",
		func() float64 { return float64(co.Stats().ShardsRetired) })
	r.GaugeFunc("gpufi_shard_experiments_saved", "Experiments never run because their campaign converged.",
		func() float64 { return float64(co.Stats().ExperimentsSaved) })
	r.GaugeFunc("gpufi_shard_wal_records", "Control-plane WAL records appended by this coordinator.",
		func() float64 { return float64(co.Stats().WALRecords) })
	r.GaugeFunc("gpufi_shard_wal_rebuilds", "Campaigns whose shard table was rebuilt from the control WAL.",
		func() float64 { return float64(co.Stats().WALRebuilds) })
	r.GaugeFunc("gpufi_shard_leases_fenced", "Stale-epoch heartbeats and batches refused after a re-issue.",
		func() float64 { return float64(co.Stats().LeasesFenced) })
	s.metrics.shardWorkerClaims = r.GaugeVec("gpufi_shard_worker_claims",
		"Shard leases granted, per worker.", "worker")
	s.metrics.shardWorkerBatches = r.GaugeVec("gpufi_shard_worker_batches",
		"Journal batches ingested, per worker.", "worker")
	s.metrics.shardWorkerRecords = r.GaugeVec("gpufi_shard_worker_records",
		"Journal records merged, per worker.", "worker")
	s.metrics.shardWorkerAge = r.GaugeVec("gpufi_shard_worker_last_seen_age_seconds",
		"Seconds since the coordinator last heard from each worker.", "worker")
}

// refreshShardWorkerMetrics re-publishes the per-worker gauge vecs from
// the coordinator's stats, so every scrape sees current last-seen ages.
func (s *Server) refreshShardWorkerMetrics() {
	co := s.opts.Coordinator
	if co == nil {
		return
	}
	for _, ws := range co.WorkerStats() {
		s.metrics.shardWorkerClaims.Set(ws.Worker, float64(ws.Claims))
		s.metrics.shardWorkerBatches.Set(ws.Worker, float64(ws.Batches))
		s.metrics.shardWorkerRecords.Set(ws.Worker, float64(ws.Records))
		s.metrics.shardWorkerAge.Set(ws.Worker, time.Since(ws.LastSeen).Seconds())
	}
}

// snapshotMetrics renders the flat JSON /metrics object, extending the
// base snapshot with shard counters on coordinator nodes.
func (s *Server) snapshotMetrics() map[string]any {
	snap := s.metrics.snapshot()
	if co := s.opts.Coordinator; co != nil {
		cs := co.Stats()
		snap["shards_planned"] = cs.ShardsPlanned
		snap["shards_completed"] = cs.ShardsCompleted
		snap["shards_reissued"] = cs.ShardsReissued
		snap["shard_batches"] = cs.Batches
		snap["shard_records_merged"] = cs.RecordsMerged
		snap["shard_records_duplicate"] = cs.RecordsDuped
		snap["shard_lease_expiries"] = cs.LeaseExpiries
		snap["shards_retired"] = cs.ShardsRetired
		snap["shard_experiments_saved"] = cs.ExperimentsSaved
		snap["shard_wal_records"] = cs.WALRecords
		snap["shard_wal_rebuilds"] = cs.WALRebuilds
		snap["shard_leases_fenced"] = cs.LeasesFenced
		snap["shard_workers"] = len(co.WorkerStats())
	}
	return snap
}

// snapshot renders the counters as the flat JSON /metrics object. The key
// set is unchanged from pre-registry releases so existing scrapers keep
// working; every value now reads from the same registry instruments the
// prom view exposes, so the two views cannot drift.
func (m *metrics) snapshot() map[string]any {
	uptime := time.Since(m.start).Seconds()
	exps := m.experiments.Load()
	rate := 0.0
	if uptime > 0 {
		rate = float64(exps) / uptime
	}
	es := core.EngineStats()
	reuseRatio := 0.0
	if es.ForksCreated+es.ForksReused > 0 {
		reuseRatio = float64(es.ForksReused) / float64(es.ForksCreated+es.ForksReused)
	}
	expPanics, expDeadlines, discarded := core.SandboxStats()
	return map[string]any{
		"uptime_seconds":           uptime,
		"jobs_queued":              m.queued.Load(),
		"jobs_running":             m.running.Load(),
		"jobs_done":                m.done.Load(),
		"jobs_failed":              m.failed.Load(),
		"jobs_cancelled":           m.cancelled.Load(),
		"job_retries":              m.retries.Load(),
		"worker_panics":            m.workerPanics.Load(),
		"worker_restarts":          m.workerRestarts.Load(),
		"experiments_total":        exps,
		"experiments_per_sec":      rate,
		"experiments_quarantined":  m.quarantined.Load(),
		"plan_campaigns_satisfied": m.planSatisfied.Load(),
		"plan_experiments_saved":   m.planSaved.Load(),
		"exp_panics":               expPanics,
		"exp_deadlines":            expDeadlines,
		"vessels_discarded":        discarded,
		"forks_created":            es.ForksCreated,
		"forks_reused":             es.ForksReused,
		"fork_reuse_ratio":         reuseRatio,
		"early_stops_inert":        es.EarlyStopsInert,
		"early_stops_overwritten":  es.EarlyStopsOverwritten,
		"early_stops_retired":      es.EarlyStopsRetired,
		"early_stops_dead":         es.EarlyStopsDead,
		"restores_chained":         es.RestoresChained,
		"suffix_cycles_skipped":    es.SuffixCyclesSkipped,
		"devices_built":            es.DevicesBuilt,
		"devices_parked":           es.DevicesParked,
		"cow_bytes_copied":         es.COWBytesCopied,
		"cow_bytes_avoided":        es.COWBytesAvoided,
		"cow_dirty_ratio":          es.COWDirtyRatio,
		"cow_full_restores":        es.COWFullRestores,
		"warps_materialized":       es.WarpsMaterialized,
	}
}

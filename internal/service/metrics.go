package service

import (
	"strings"
	"time"

	"gpufi/internal/obs"
)

// metrics holds the service's instruments, registered in a per-Server
// obs.Registry so tests can run many servers in one process without sharing
// job counters; the simulator's, the engine's and the store's are in the
// process-wide obs.Default(), each registered where it is taken. GET
// /metrics renders both registries, the server's first, and nothing else:
// the Prometheus text exposition under ?format=prom, else one flat JSON
// object of Registry.Snapshot values under jsonKey. A family is listed once,
// where it is registered, and appears in both views.
type metrics struct {
	start time.Time
	reg   *obs.Registry

	queued      *obs.Gauge   // jobs currently queued
	running     *obs.Gauge   // jobs currently running
	done        *obs.Counter // jobs completed successfully
	failed      *obs.Counter // jobs that errored
	cancelled   *obs.Counter // jobs cancelled (by request or shutdown)
	experiments *obs.Counter // experiments finished since start

	workerPanics *obs.Counter // job panics recovered; each failed its job
	quarantined  *obs.Counter // experiments quarantined (panic or deadline)

	planSatisfied *obs.Counter // jobs whose adaptive stop rule converged early
	planSaved     *obs.Counter // experiments skipped by adaptive early stopping

	queueWait  *obs.Histogram // seconds a job waited queued before a worker took it
	jobSeconds *obs.Histogram // seconds per job, pop to terminal state
	progress   *obs.GaugeVec  // per-running-campaign completion ratio

	httpRequests *obs.CounterVec // requests by route class (bounded labels)

	// Per-worker control-plane activity, refreshed from
	// Coordinator.WorkerStats on every scrape.
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
	m.workerPanics = r.Counter("gpufi_worker_panics_total", "Panics recovered at the job boundary; each failed its job.")
	m.quarantined = r.Counter("gpufi_experiments_quarantined_total",
		"Experiments quarantined by the sandbox (panic or wall-clock deadline).")
	m.planSatisfied = r.Counter("gpufi_plan_campaigns_satisfied_total",
		"Adaptive campaigns whose stop rule converged before the run ceiling.")
	m.planSaved = r.Counter("gpufi_plan_experiments_saved_total",
		"Experiments never simulated because an adaptive stop rule was satisfied first.")
	m.queueWait = r.Histogram("gpufi_queue_wait_seconds",
		"Seconds a job waited in the queue before a worker picked it up.", nil)
	m.jobSeconds = r.Histogram("gpufi_job_seconds",
		"Seconds per job, from queue pop to terminal state.", nil)
	m.progress = r.GaugeVec("gpufi_campaign_progress_ratio",
		"Completion ratio (done/total) per running campaign.", "id")
	m.httpRequests = r.CounterVec("gpufi_http_requests_total",
		"HTTP requests served, by route class.", "route")
	r.GaugeFunc("gpufi_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(m.start).Seconds() })
	r.GaugeFunc("gpufi_experiments_per_sec", "Injection experiments finished per second of uptime.",
		func() float64 { return float64(m.experiments.Load()) / time.Since(m.start).Seconds() })
}

// registerShardMetrics publishes the coordinator's counters — one struct
// under its mutex, read here and nowhere else — in the per-server registry,
// so a scrape of any node covers its shard control plane too. Called once
// from New.
func (s *Server) registerShardMetrics() {
	co := s.co
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
	r.GaugeFunc("gpufi_shard_wal_rebuilds", "Campaigns whose shard table was rebuilt from the control WAL.",
		func() float64 { return float64(co.Stats().WALRebuilds) })
	r.GaugeFunc("gpufi_shard_leases_fenced", "Stale-epoch journal batches refused after a re-issue.",
		func() float64 { return float64(co.Stats().LeasesFenced) })
	r.GaugeFunc("gpufi_shard_workers", "Workers the coordinator has heard from.",
		func() float64 { return float64(len(co.WorkerStats())) })
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
	for _, ws := range s.co.WorkerStats() {
		s.metrics.shardWorkerClaims.Set(ws.Worker, float64(ws.Claims))
		s.metrics.shardWorkerBatches.Set(ws.Worker, float64(ws.Batches))
		s.metrics.shardWorkerRecords.Set(ws.Worker, float64(ws.Records))
		s.metrics.shardWorkerAge.Set(ws.Worker, time.Since(ws.LastSeen).Seconds())
	}
}

// registries are the two sources of /metrics, in exposition order.
func (m *metrics) registries() []*obs.Registry {
	return []*obs.Registry{m.reg, obs.Default()}
}

// jsonKey is a family's key in the flat JSON /metrics object: its name
// without the gpufi_ prefix and without a trailing _total.
func jsonKey(name string) string {
	return strings.TrimSuffix(strings.TrimPrefix(name, "gpufi_"), "_total")
}

// metricsJSON renders every family of both registries as the flat JSON
// /metrics object.
func (s *Server) metricsJSON() map[string]any {
	out := map[string]any{}
	for _, r := range s.metrics.registries() {
		for name, v := range r.Snapshot() {
			out[jsonKey(name)] = v
		}
	}
	return out
}

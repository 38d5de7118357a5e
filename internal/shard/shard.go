// Package shard turns a gpuFI campaign into distributed work: a
// coordinator partitions each round of a campaign's schedule (core.Schedule:
// all pending experiments for a fixed-N campaign, one stratified round for
// an adaptive one) into a generation of shards along snapshot-cluster
// boundaries (each cluster is one prefix run plus its forks — the fork
// engine's natural unit), leases shards to stateless worker nodes over
// HTTP, and merges the journal batches they stream back into the existing
// crash-safe campaign store.
//
// The protocol is built so EITHER side can die at any point:
//
//   - A claim hands out a shard with a lease token, an epoch, and a TTL.
//     Every journal batch the coordinator accepts renews the lease, and a
//     worker with nothing to send for a third of the TTL sends an empty
//     batch, so one POST at a time, from one goroutine per shard, is all
//     the worker ever says. A lease that expires makes the shard claimable
//     again, by anyone; re-issue bumps the epoch, and the old epoch is
//     fenced — a pre-crash straggler can renew nothing and ingest nothing
//     once a successor owns the shard. A worker that claims under the name
//     a restarted coordinator restored a lease to has lost that shard, and
//     gets it back at once, so worker names must be unique.
//   - Journal batches are idempotent: every record is keyed by
//     (campaign, cluster, experiment index), and the simulator is
//     deterministic in the campaign seed, so a batch replayed by a dead
//     worker's successor — or by the dead worker itself, limping back —
//     merges to the exact same journal bytes and is deduplicated.
//   - The coordinator journals experiments through the same
//     store.Campaign codec the local engine uses, and what a restart
//     needs of its own control plane (plans, grants and their epochs)
//     through a per-campaign WAL with the same torn-tail recovery
//     discipline. Every protocol transition is a method of one pure
//     shard table (table.go); a restarted coordinator replays the WAL
//     through those same methods, on top of the journal, and answers
//     503 coordinator_recovering while it does; workers wait out outages
//     under jittered exponential backoff and resume cleanly, re-sending
//     unacknowledged batches through the idempotent merge path. The
//     merged journal of a sharded, crashed, restarted campaign stays
//     byte-identical (per experiment record) to a single-process run.
package shard

import (
	"errors"

	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/store"
)

// Typed protocol errors. They cross HTTP as the rows of Wire.
var (
	// ErrNoWork reports a claim when no shard is pending — not a failure,
	// the worker polls again.
	ErrNoWork = errors.New("shard: no shard available")

	// ErrUnknownShard reports a shard id the coordinator does not track —
	// a typo, or a shard from a previous coordinator lifetime.
	ErrUnknownShard = errors.New("shard: unknown shard")

	// ErrLeaseRevoked reports a lease token the coordinator never issued
	// for the shard — a typo, or a token from a generation whose plan was
	// discarded.
	ErrLeaseRevoked = errors.New("shard: lease revoked")

	// ErrLeaseFenced reports a lease token from a superseded issue of the
	// shard: the lease expired and the shard was re-issued under a higher
	// epoch, so the straggler's batches are refused, empty or not. (A
	// lease that merely expired, without a re-issue, still ingests —
	// determinism plus dedup make late results harmless — but once a
	// successor holds the shard, the fence guarantees the pre-crash worker
	// can never write again.)
	ErrLeaseFenced = errors.New("shard: lease fenced")

	// ErrRecovering reports a control-plane call against a campaign whose
	// coordinator is still rebuilding its shard table from the control WAL
	// after a restart. The worker parks and retries: the shard it holds is
	// about to exist again.
	ErrRecovering = errors.New("shard: coordinator recovering")

	// ErrCampaignClosed reports a batch or claim against a campaign that
	// was cancelled, deleted, or already finished: late journal batches
	// must not resurrect it.
	ErrCampaignClosed = errors.New("shard: campaign closed")

	// ErrBadBatch reports a malformed batch: a record for an index outside
	// the shard, an unparsable outcome, a missing payload, or a trace that
	// names another experiment than the record it rides in.
	ErrBadBatch = errors.New("shard: bad batch")
)

// WireError is how one typed protocol error crosses HTTP: its status, the
// code field of the API's error envelope, and a Retry-After in seconds
// (0: none).
type WireError struct {
	Err        error
	Status     int
	Code       string
	RetryAfter int
}

// Wire is the one table between the typed protocol errors and the error
// envelope: internal/service answers a row's status and code, and the
// worker reads the code back into the row's error. ErrNoWork has no row:
// a claim with nothing to hand out is a 204 without a body.
var Wire = []WireError{
	{ErrRecovering, 503, "coordinator_recovering", 1},
	{ErrUnknownShard, 404, "shard_unknown", 0},
	{ErrLeaseFenced, 409, "lease_fenced", 0},
	{ErrLeaseRevoked, 409, "lease_revoked", 0},
	{ErrCampaignClosed, 409, "campaign_closed", 0},
	{ErrBadBatch, 400, "invalid_batch", 0},
}

// Shard is the unit of distributed work: one campaign's experiments for a
// contiguous run of snapshot clusters. The worker reconstructs the full
// campaign from Spec (specs are derived from the seed, identically on
// every node) and executes only Indices, skipping the rest via the
// engine's Completed list.
type Shard struct {
	ID       string     `json:"id"`
	Campaign string     `json:"campaign"`
	Spec     store.Spec `json:"spec"`
	Indices  []int      `json:"indices"`

	// Lease is the token authorizing journal batches for this issue of the
	// shard; LeaseTTLMS is how long it lives without one (each accepted
	// batch renews it). Epoch is the issue number — it increases monotonically
	// with every (re-)issue, survives coordinator restarts via the control
	// WAL, and fences stale holders: only the highest epoch may write.
	Lease      string `json:"lease"`
	LeaseTTLMS int64  `json:"lease_ttl_ms"`
	Epoch      int64  `json:"epoch,omitempty"`

	// Trace and Span carry the campaign's distributed-tracing linkage:
	// the 128-bit root trace ID (32 hex digits) and the root span to
	// parent worker spans under (16 hex digits). Empty when the campaign
	// is untraced; the worker then emits no spans for the shard. A
	// re-issued shard carries the same trace, so a successor worker's
	// spans land on the original timeline.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
}

// Record kinds on the journal-batch wire.
const (
	KindExp  = "exp"  // one finished experiment, with its trace when traced
	KindSpan = "span" // one completed tracing span (worker-side timeline)
)

// Record is one journal-stream element. An experiment record carries the
// full core.Experiment and, on a traced campaign, its propagation trace in
// Trace — one finished experiment is one record. The coordinator hands it
// to store.Campaign.Record, whose codec is byte-deterministic, so wire
// transport preserves journal and trace identity, and a quarantined
// experiment gets its write-ahead quarantine record in the same order a
// single-process run writes it.
type Record struct {
	Kind  string                `json:"kind"`
	Exp   *core.Experiment      `json:"exp,omitempty"`
	Trace *core.ExperimentTrace `json:"trace,omitempty"`
	Span  *obs.SpanRecord       `json:"span,omitempty"`
}

// Batch is one journal POST from a worker: an ordered slice of records
// for one shard under one lease. Seq increments per POST (diagnostics
// only — idempotence comes from per-index dedup, not sequencing). Final
// marks the worker's last batch for the shard; the coordinator then
// checks the shard for completeness. A worker whose earlier batch finished
// the campaign sends no final one. Records may be empty: an idle worker's
// batch only renews its lease.
type Batch struct {
	Campaign string   `json:"campaign"`
	Shard    string   `json:"shard"`
	Lease    string   `json:"lease"`
	Seq      int      `json:"seq"`
	Final    bool     `json:"final,omitempty"`
	Records  []Record `json:"records"`
}

// BatchResult is the coordinator's answer to a journal batch.
type BatchResult struct {
	Accepted     int  `json:"accepted"`
	Duplicates   int  `json:"duplicates"`
	ShardDone    bool `json:"shard_done"`
	CampaignDone bool `json:"campaign_done"`
}

// ClaimRequest names the worker asking for a shard (Coordinator.Claim).
type ClaimRequest struct {
	Worker string `json:"worker,omitempty"`
}

// Status is one shard's observable state, for GET /v1/shards.
type Status struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	State    string `json:"state"` // pending | leased | done
	Worker   string `json:"worker,omitempty"`
	Indices  int    `json:"indices"`
	Merged   int    `json:"merged"`
	Reissues int    `json:"reissues,omitempty"`
}

// Package shard turns a gpuFI campaign into distributed work: a
// coordinator partitions a campaign's pending experiments into shards
// along snapshot-cluster boundaries (each cluster is one prefix run plus
// its forks — the fork engine's natural unit), leases shards to stateless
// worker nodes over HTTP, and merges the journal batches they stream back
// into the existing crash-safe campaign store.
//
// The protocol is built so EITHER side can die at any point:
//
//   - A claim hands out a shard with a lease token, an epoch, and a TTL;
//     the worker keeps the lease alive with heartbeats. A lease that
//     expires makes the shard claimable again, by anyone; re-issue bumps
//     the epoch, and the old epoch is fenced — a pre-crash straggler can
//     heartbeat nothing and ingest nothing once a successor owns the
//     shard.
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
//     503 coordinator_recovering while it does; workers park on outages with jittered exponential backoff
//     and resume cleanly, re-sending unacknowledged batches through the
//     idempotent merge path. The merged journal of a sharded, crashed,
//     restarted campaign stays byte-identical (per experiment record) to
//     a single-process run.
package shard

import (
	"errors"

	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/store"
)

// Typed protocol errors. The HTTP layer (internal/service) maps them to
// the API's uniform error envelope; the worker maps envelope codes back.
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
	// epoch, so the straggler's heartbeats AND batches are refused. (A
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
	// the shard, an unparsable outcome, or a missing payload.
	ErrBadBatch = errors.New("shard: bad batch")

	// ErrCampaignSatisfied reports a batch or heartbeat against a campaign
	// whose adaptive stop rule already converged: the coordinator finalized
	// it early and retired the outstanding shards. Unlike ErrCampaignClosed
	// this is a success signal — the worker stops the shard cleanly instead
	// of abandoning it.
	ErrCampaignSatisfied = errors.New("shard: campaign satisfied")
)

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
	Clusters int        `json:"clusters"` // snapshot clusters covered, for sizing

	// Lease is the token authorizing journal batches and heartbeats for
	// this issue of the shard; LeaseTTLMS is how long it lives without a
	// heartbeat. Epoch is the issue number — it increases monotonically
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
	KindExp   = "exp"   // one finished experiment (journal record)
	KindTrace = "trace" // one propagation trace (traced campaigns)
	KindSpan  = "span"  // one completed tracing span (worker-side timeline)
)

// Record is one journal-stream element. An experiment record carries the
// full core.Experiment — the coordinator re-encodes it through the store
// codec, which is byte-deterministic, so wire transport preserves journal
// identity. A quarantined experiment (Exp.Quarantined) additionally
// yields a write-ahead quarantine record on the coordinator, in the same
// order the local engine would have written it.
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
// checks the shard for completeness.
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

	// Satisfied reports that this batch pushed the campaign's adaptive
	// confidence interval under its target: the campaign is finalized and
	// every outstanding shard retired. The worker stops the shard's engine
	// instead of running the remaining experiments.
	Satisfied bool `json:"satisfied,omitempty"`
}

// ClaimRequest names the worker asking for a shard (diagnostics only).
type ClaimRequest struct {
	Worker string `json:"worker,omitempty"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	Lease string `json:"lease"`
}

// HeartbeatResult acknowledges a lease extension.
type HeartbeatResult struct {
	Lease       string `json:"lease"`
	ExpiresInMS int64  `json:"expires_in_ms"`
}

// Status is one shard's observable state, for GET /v1/shards.
type Status struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	State    string `json:"state"` // pending | leased | done | retired
	Worker   string `json:"worker,omitempty"`
	Indices  int    `json:"indices"`
	Merged   int    `json:"merged"`
	Reissues int    `json:"reissues,omitempty"`
}

package shard

import (
	"time"

	"gpufi/internal/store"
)

// rebuildResult is a shard table reconstructed from a campaign's control
// WAL: the plan generation it belongs to, the shard states keyed by id in
// plan order, and how many live leases were restored.
type rebuildResult struct {
	gen        int
	shards     map[string]*shardState
	sorder     []string
	liveLeases int
}

// rebuildFromWAL reconstructs a campaign's in-memory shard table from its
// control WAL and the journal's merged-index set. It returns false — plan
// afresh — when no durable plan generation exists, or when the newest
// complete generation no longer covers the pending work (a corrupt or
// foreign WAL; coverage is the safety net that keeps a bad WAL from
// silently dropping experiments).
//
// Only the highest generation WITH a plan_done marker is trusted: a crash
// mid-plan leaves a prefix of plan records that looks complete but is not,
// and the marker is what distinguishes "all shards written, fsynced" from
// "whatever survived". Grants replay on top of the plan: the highest epoch
// per shard is the live fence, every durable token is remembered (so a
// straggler's late batch is judged stale-by-epoch rather than rejected as
// unknown), and the restored lease gets a fresh TTL of grace — its worker
// may well still be running, parked, waiting for the coordinator to come
// back; expiring it on sight would re-issue shards that are seconds from
// merging. Grants for shard ids outside the chosen generation (stale
// generations embed their gen in the id) are ignored.
func rebuildFromWAL(ctl []store.ControlRecord, merged map[int]bool, total int,
	now time.Time, ttl time.Duration) (*rebuildResult, bool) {

	gen := 0
	for _, r := range ctl {
		if r.Kind == store.CtlPlanDone && r.Gen > gen {
			gen = r.Gen
		}
	}
	if gen == 0 {
		return nil, false
	}

	rb := &rebuildResult{gen: gen, shards: make(map[string]*shardState)}
	covered := make(map[int]bool, total)
	for i := range merged {
		covered[i] = true
	}
	for _, r := range ctl {
		if r.Kind != store.CtlPlan || r.Gen != gen {
			continue
		}
		if _, dup := rb.shards[r.Shard]; dup {
			continue
		}
		idxs := append([]int(nil), r.Indices...)
		set := make(map[int]bool, len(idxs))
		journaled := 0
		for _, i := range idxs {
			set[i] = true
			covered[i] = true
			if merged[i] {
				journaled++
			}
		}
		rb.shards[r.Shard] = &shardState{
			shard:    Shard{ID: r.Shard, Indices: idxs, Clusters: 1},
			indexSet: set, size: len(idxs), merged: journaled,
			leases: make(map[string]int64),
			done:   journaled == len(idxs),
		}
		rb.sorder = append(rb.sorder, r.Shard)
	}
	for i := 0; i < total; i++ {
		if !covered[i] {
			return nil, false
		}
	}

	for _, r := range ctl {
		if r.Kind != store.CtlGrant {
			continue
		}
		ss, ok := rb.shards[r.Shard]
		if !ok {
			continue
		}
		ss.leases[r.Lease] = r.Epoch
		if r.Epoch >= ss.epoch {
			ss.epoch = r.Epoch
			ss.curLease = r.Lease
			ss.worker = r.Worker
			ss.expiry = now.Add(ttl)
		}
	}
	for _, ss := range rb.shards {
		if ss.epoch > 0 {
			ss.reissues = int(ss.epoch) - 1
		}
		if !ss.done && ss.curLease != "" {
			rb.liveLeases++
		}
	}
	return rb, true
}

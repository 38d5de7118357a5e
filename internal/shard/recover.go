package shard

import (
	"time"

	"gpufi/internal/store"
)

// replay rebuilds a campaign's shard table from its control WAL by feeding
// the records through the same plan and grant the live path calls. t is the
// campaign's table as the journal alone leaves it (newTable). On true, t
// holds generation gen and every lease the WAL granted for it; on false —
// no durable plan, or one that no longer covers the pending work — t holds
// no shards and gen is the generation to plan afresh under.
//
// Only the highest generation WITH a plan_done marker is trusted: a crash
// mid-plan leaves a prefix of plan records that looks complete but is not,
// and a fresh plan must never reuse a generation a crash abandoned. Grants
// replay on top in WAL order, each restored with a fresh TTL of grace
// (expiry): its worker may well be parked, waiting for the coordinator to
// come back. Grants for other generations' shards find no shard and fall
// away. The switches below name every kind replay reads; a kind not named
// here is skipped, which is how a WAL written by an older build — renew,
// expire, merge, shard_done, retire, finalize — still resumes, and why no
// new code may write one (TestEveryWrittenControlKindIsReplayed).
func replay(t *table, ctl []store.ControlRecord, expiry time.Time) (gen int, ok bool) {
	seen := 0
	for _, r := range ctl {
		switch r.Kind {
		case store.CtlPlan:
			seen = max(seen, r.Gen)
		case store.CtlPlanDone:
			seen, gen = max(seen, r.Gen), max(gen, r.Gen)
		}
	}
	if gen == 0 {
		return seen + 1, false
	}
	var parts []part
	for _, r := range ctl {
		if r.Kind == store.CtlPlan && r.Gen == gen {
			parts = append(parts, part{id: r.Shard, indices: r.Indices})
		}
	}
	t.plan(gen, parts)
	if !t.covers() {
		t.plan(0, nil)
		return seen + 1, false
	}
	for _, r := range ctl {
		if r.Kind == store.CtlGrant {
			t.grant(r.Shard, r.Lease, r.Epoch, r.Worker, expiry)
		}
	}
	return gen, true
}

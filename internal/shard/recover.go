package shard

import (
	"time"

	"gpufi/internal/store"
)

// replay rebuilds a campaign's shard table from its control WAL by feeding
// the records through the same plan and grant the live path calls. t is the
// campaign's table as the journal alone leaves it (newTable), and round the
// unjournaled indices of the round the campaign's schedule is in. On true,
// t holds generation gen and every lease the WAL granted for it; on false —
// no durable plan, or one that does not cover the round — t holds no shards
// and gen is the generation to plan afresh under.
//
// Only the highest generation is trusted, and only WITH its plan_done
// marker: a crash mid-plan leaves plan records that look complete but are
// not, the generation below is a round already finished, and a fresh plan
// must never reuse a generation a crash abandoned. Grants replay on top in
// WAL order, each restored with a fresh TTL of grace (expiry), as its worker
// may be parked waiting for the coordinator, unless it claims again, which
// shows it died (table.claimable). Grants for other generations' shards
// fall away. A kind the switches below do not name is skipped: the store's
// lifecycle kinds, which store.readLifecycle reads, and an older build's
// renew, expire, merge, shard_done, retire and finalize, which is how such
// a WAL still resumes, and why no new code may write one
// (TestEveryWrittenControlKindIsReplayed).
func replay(t *table, ctl []store.ControlRecord, round []int, expiry time.Time) (gen int, ok bool) {
	seen := 0
	for _, r := range ctl {
		switch r.Kind {
		case store.CtlPlan:
			seen = max(seen, r.Gen)
		case store.CtlPlanDone:
			seen, gen = max(seen, r.Gen), max(gen, r.Gen)
		}
	}
	if gen == 0 || gen < seen {
		return seen + 1, false
	}
	var parts []part
	for _, r := range ctl {
		if r.Kind == store.CtlPlan && r.Gen == gen {
			parts = append(parts, part{id: r.Shard, indices: r.Indices})
		}
	}
	t.plan(gen, parts)
	if !t.covers(round) {
		t.plan(0, nil)
		return seen + 1, false
	}
	for _, r := range ctl {
		if r.Kind == store.CtlGrant && t.grant(r.Shard, r.Lease, r.Epoch, r.Worker, expiry) {
			t.shards[r.Shard].restored = true
		}
	}
	return gen, true
}

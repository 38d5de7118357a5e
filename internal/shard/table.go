package shard

import (
	"fmt"
	"time"
)

// table is one campaign's shard state machine: which shards exist, who
// holds each and at which epoch, which experiment indices are journaled,
// and whether the campaign is still open. Every transition of the plan /
// lease / fence / merge / close protocol is a method here and nowhere
// else. The Coordinator holds the mutex, the store handles and the
// clock and calls them; a restarted coordinator replays control.jsonl
// through the same plan and grant (recover.go). The table takes no lock,
// reads no clock and does no I/O, so its invariants can be driven by a
// generator (table_test.go).
type table struct {
	id        string       // campaign, for error texts
	total     int          // the campaign's experiment count
	journaled map[int]bool // experiment indices in the journal, from any lifetime
	gen       int          // plan generation the shards belong to: one round of the campaign
	shards    map[string]*shardState
	order     []string // issue order (cycle order)
	left      int      // shards of the generation not merged yet

	closed bool   // no more claims, renewals or batches; reason says why
	reason string // "done" | "cancelled" | "failed"
}

// shardState is the coordinator-side view of one shard.
type shardState struct {
	id       string
	indices  []int // as planned, in cycle order
	indexSet map[int]bool
	size     int              // len(indexSet), kept past the tombstone
	merged   int              // how many of them are journaled
	leases   map[string]int64 // every token ever granted -> its epoch
	epoch    int64            // current issue number
	curLease string           // the one token that may write
	worker   string
	expiry   time.Time
	restored bool // the lease is a replayed grant no batch has renewed yet
	done     bool
}

// part is one shard of a plan: its id (campaign:gen:k) and its indices.
type part struct {
	id      string
	indices []int
}

func newTable(id string, total int, journaled []int) *table {
	t := &table{id: id, total: total, journaled: make(map[int]bool, total)}
	for _, i := range journaled {
		t.journaled[i] = true
	}
	return t
}

// plan installs generation gen as the table's shards, replacing whatever
// it held: the previous round's shards are all merged by then, or belong
// to a generation a restart discarded. A shard whose every index is already
// journaled is born done.
func (t *table) plan(gen int, parts []part) {
	t.gen, t.order, t.left = gen, nil, 0
	t.shards = make(map[string]*shardState, len(parts))
	for _, p := range parts {
		if t.shards[p.id] != nil {
			continue
		}
		ss := &shardState{id: p.id, indices: p.indices,
			indexSet: make(map[int]bool, len(p.indices)), leases: make(map[string]int64)}
		for _, i := range p.indices {
			if !ss.indexSet[i] {
				ss.indexSet[i] = true
				if t.journaled[i] {
					ss.merged++
				}
			}
		}
		ss.size = len(ss.indexSet)
		ss.done = ss.merged == ss.size
		if !ss.done {
			t.left++
		}
		t.shards[p.id] = ss
		t.order = append(t.order, p.id)
	}
}

// covers reports whether the journal and the plan between them account for
// every experiment of the round the plan is meant to run: the safety net
// that keeps a corrupt or foreign WAL, or the plan of a round the journal
// has moved past, from silently dropping work.
func (t *table) covers(round []int) bool {
next:
	for _, i := range round {
		if t.journaled[i] {
			continue
		}
		for _, ss := range t.shards {
			if ss.indexSet[i] {
				continue next
			}
		}
		return false
	}
	return true
}

// state is what GET /v1/shards reports: pending | leased | done.
func (ss *shardState) state(now time.Time) string {
	switch {
	case ss.done:
		return "done"
	case ss.curLease != "" && now.Before(ss.expiry):
		return "leased"
	}
	return "pending"
}

// reissues is how many times the shard changed hands.
func (ss *shardState) reissues() int { return int(max(ss.epoch-1, 0)) }

// claimable returns the oldest shard worker may be granted at now, or nil:
// one never leased, one whose lease ran out, or one whose lease replay
// restored to worker and no batch has renewed since — a worker claims only
// when it holds no shard, so that one died with the last coordinator.
func (t *table) claimable(now time.Time, worker string) *shardState {
	if t.closed {
		return nil
	}
	for _, sid := range t.order {
		if ss := t.shards[sid]; ss.state(now) == "pending" || !ss.done && ss.restored && ss.worker == worker {
			return ss
		}
	}
	return nil
}

// grant records that lease was issued for shard sid at epoch, good until
// expiry. The live path passes the shard's epoch + 1 after the grant is
// durable; replay passes what the WAL holds, in WAL order. Every token is
// remembered, so a straggler is judged fenced rather than unknown; the
// highest epoch is the fence and its token the only one that may write.
// False for a shard the table does not hold (a discarded generation's).
func (t *table) grant(sid, lease string, epoch int64, worker string, expiry time.Time) bool {
	ss := t.shards[sid]
	if ss == nil || ss.leases == nil || lease == "" || epoch <= 0 {
		return false
	}
	ss.leases[lease] = epoch
	if epoch >= ss.epoch {
		ss.epoch, ss.curLease, ss.worker, ss.expiry, ss.restored = epoch, lease, worker, expiry, false
	}
	return true
}

// open resolves a shard of a campaign that still takes writes.
func (t *table) open(sid string) (*shardState, error) {
	ss := t.shards[sid]
	switch {
	case ss == nil:
		return nil, fmt.Errorf("%w: %s", ErrUnknownShard, sid)
	case t.closed:
		return nil, fmt.Errorf("%w: campaign %s is %s", ErrCampaignClosed, t.id, t.reason)
	}
	return ss, nil
}

// holds is the fence: only the token of the shard's current epoch passes.
// A token never issued is revoked; one from a superseded issue is fenced.
func (ss *shardState) holds(lease string) error {
	epoch, ok := ss.leases[lease]
	if !ok {
		return fmt.Errorf("%w: shard %s does not recognize this lease", ErrLeaseRevoked, ss.id)
	}
	if lease != ss.curLease {
		return fmt.Errorf("%w: shard %s was re-issued at epoch %d (lease holds epoch %d)",
			ErrLeaseFenced, ss.id, ss.epoch, epoch)
	}
	return nil
}

// check decides whether lease may write to shard sid: the one place the
// closed / revoked / fenced answers are made.
func (t *table) check(sid, lease string) error {
	ss, err := t.open(sid)
	if err != nil {
		return err
	}
	return ss.holds(lease)
}

// renew extends a live lease to expiry: the one thing a batch under it
// proves is that its worker is alive.
func (t *table) renew(sid, lease string, expiry time.Time) error {
	if err := t.check(sid, lease); err != nil {
		return err
	}
	t.shards[sid].expiry, t.shards[sid].restored = expiry, false
	return nil
}

// owns reports whether experiment i belongs to shard sid.
func (t *table) owns(sid string, i int) bool { return t.shards[sid].indexSet[i] }

// merged records that experiment i of shard sid reached the journal, and
// reports whether that completed the shard. Once left is 0 the generation
// is merged and its round complete.
func (t *table) merged(sid string, i int) (shardDone bool) {
	ss := t.shards[sid]
	t.journaled[i] = true
	ss.merged++
	if !ss.done && ss.merged == ss.size {
		ss.done = true
		t.left--
		return true
	}
	return false
}

// pending is how many experiments are not journaled yet.
func (t *table) pending() int { return t.total - len(t.journaled) }

// close ends the campaign: from here every check answers closed and
// nothing is claimable.
func (t *table) close(reason string) { t.closed, t.reason = true, reason }

// entomb reduces a closed table to what answers a late batch and a status
// query — ids, sizes, merge counts, holders — and drops everything that
// grows with the campaign.
func (t *table) entomb() {
	t.journaled = nil
	for _, ss := range t.shards {
		ss.indices, ss.indexSet, ss.leases = nil, nil, nil
	}
}

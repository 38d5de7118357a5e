package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gpufi/internal/store"
)

// model is the reference the table is held to: the protocol as DESIGN.md
// §10 and §12 state it, written without looking at table.go. It judges a
// lease by comparing epochs where the table compares tokens; that the two
// agree on every history the generator finds is part of the test. It holds
// the current round's generation only: a round's shards are gone once the
// next round is planned.
type model struct {
	order     []string
	shards    map[string]*modelShard
	journaled map[int]bool
	closed    bool
}

type modelShard struct {
	idx    map[int]bool
	list   []int            // idx as planned
	issued map[string]int64 // every token ever granted -> epoch
	epoch  int64
	worker string
	until  time.Time
	done   bool
	// restored: the holder's grant came back from the WAL at a restart and
	// no batch has renewed it since, so the holder claiming again is dead.
	restored bool
}

func (m *model) merged(s *modelShard) (n int) {
	for i := range s.idx {
		if m.journaled[i] {
			n++
		}
	}
	return n
}

func (m *model) claimable(now time.Time, worker string) string {
	for _, sid := range m.order {
		s := m.shards[sid]
		if !m.closed && !s.done && (!(s.epoch > 0 && now.Before(s.until)) || s.restored && s.worker == worker) {
			return sid
		}
	}
	return ""
}

// verdict is the sentinel a write under lease must be answered with.
func (m *model) verdict(sid, lease string) error {
	s := m.shards[sid]
	switch {
	case s == nil:
		return ErrUnknownShard
	case m.closed:
		return ErrCampaignClosed
	}
	if e, ok := s.issued[lease]; !ok {
		return ErrLeaseRevoked
	} else if e != s.epoch {
		return ErrLeaseFenced
	}
	return nil
}

// restart is what a coordinator crash does to the model: the journal is cut
// to what survived, done follows from it, and every holder gets fresh grace
// as a restored holder.
func (m *model) restart(journal []int, until time.Time) {
	m.journaled = make(map[int]bool)
	for _, i := range journal {
		m.journaled[i] = true
	}
	for _, s := range m.shards {
		s.done, s.until, s.restored = m.merged(s) == len(s.idx), until, s.epoch > 0
	}
}

// sameClass reports whether got is the sentinel want (nil matches nil).
func sameClass(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// tableRun is one generated history: a table, its model, and what a crash
// would leave on disk — the control WAL (synced records plus a batched tail)
// and the journal (synced prefix plus a batched tail).
type tableRun struct {
	t   *testing.T
	rng *rand.Rand
	ttl time.Duration
	now time.Time

	n      int // campaigns so far
	id     string
	total  int
	round  []int    // the indices the current generation was planned for
	rest   []int    // the indices of the rounds still to come
	past   []string // shards of earlier generations
	tab    *table
	m      *model
	wal    []store.ControlRecord // durable
	tail   []store.ControlRecord // appended, not yet synced
	jrn    []int                 // journal, in append order
	synced int                   // how much of jrn is durable
	leases int
	tokens map[string][]string // every token granted per shard, in grant order
	high   map[string]int64    // highest epoch ever granted per shard
	seen   map[string]int64    // last epoch the table showed per shard

	replays, fences, closes, rounds int
}

var legacyKinds = []string{"renew", "expire", "merge", "shard_done", "retire", "finalize"}

// start opens a new campaign: a random prior journal (the analytic
// pre-pass, an earlier lifetime), the rest in one to three rounds, and —
// one time in four — a coordinator that died mid-plan first, so the
// generation that survives is not the first one written.
func (r *tableRun) start() {
	r.n++
	r.id = fmt.Sprintf("c%d", r.n)
	r.total = 1 + r.rng.Intn(40)
	r.wal, r.tail, r.jrn, r.synced, r.rest, r.past = nil, nil, nil, 0, nil, nil
	r.tokens, r.high, r.seen = map[string][]string{}, map[string]int64{}, map[string]int64{}
	for k, i := range r.rng.Perm(r.total) {
		if k > 0 && r.rng.Intn(5) == 0 {
			r.jrn = append(r.jrn, i)
		} else {
			r.rest = append(r.rest, i)
		}
	}
	r.synced = len(r.jrn) // the journal is synced before the WAL is opened
	r.tab = newTable(r.id, r.total, r.jrn)
	r.m = &model{journaled: map[int]bool{}}
	for _, i := range r.jrn {
		r.m.journaled[i] = true
	}

	gen, ok := replay(r.tab, nil, r.rest, r.now)
	if ok || gen != 1 {
		r.t.Fatalf("empty WAL replayed: gen %d ok %v", gen, ok)
	}
	if r.rng.Intn(4) == 0 {
		// Died mid-plan: some plan records of gen 1 durable, no plan_done.
		for k := 0; k < 1+r.rng.Intn(3); k++ {
			r.wal = append(r.wal, store.ControlRecord{Kind: store.CtlPlan, Gen: 1,
				Shard: fmt.Sprintf("%s:1:%d", r.id, k), Indices: r.rest})
		}
		if gen, ok = replay(r.tab, r.wal, r.rest, r.now); ok || gen != 2 {
			r.t.Fatalf("abandoned generation: replay gave gen %d ok %v, want a fresh plan at 2", gen, ok)
		}
	}
	r.plan(gen)
}

// plan takes the next round off rest — all of it, or a random head of it
// when a stop rule cuts rounds — and plans it as generation gen: plan
// records and plan_done, synced with everything before them, then the
// table. The previous generation's shards leave the model.
func (r *tableRun) plan(gen int) {
	n := len(r.rest)
	if r.rng.Intn(4) != 0 {
		n = 1 + r.rng.Intn(n)
	}
	r.round, r.rest = r.rest[:n], r.rest[n:]
	r.past = append(r.past, r.m.order...)
	r.m.shards, r.m.order = map[string]*modelShard{}, nil
	r.wal, r.tail = append(r.wal, r.tail...), nil
	var parts []part
	pending := r.round
	for k, shards := 0, 1+r.rng.Intn(6); len(pending) > 0; k++ {
		n := max(1, len(pending)/shards)
		if k == shards-1 {
			n = len(pending)
		}
		p := part{id: fmt.Sprintf("%s:%d:%d", r.id, gen, k), indices: pending[:n]}
		pending = pending[n:]
		parts = append(parts, p)
		r.wal = append(r.wal, store.ControlRecord{Kind: store.CtlPlan, Gen: gen, Shard: p.id, Indices: p.indices})
		s := &modelShard{idx: map[int]bool{}, list: p.indices, issued: map[string]int64{}}
		for _, i := range p.indices {
			s.idx[i] = true
		}
		r.m.shards[p.id], r.m.order = s, append(r.m.order, p.id)
	}
	r.wal = append(r.wal, store.ControlRecord{Kind: store.CtlPlanDone, Gen: gen, Count: len(parts)})
	r.tab.plan(gen, parts)
	if !r.tab.covers(r.round) {
		r.t.Fatalf("fresh plan does not cover its round")
	}
	r.rounds++
}

// finish closes the table the way the coordinator's one close path does and
// holds the tombstone to the open table's answers, then starts the next
// campaign.
func (r *tableRun) finish(reason string) {
	r.tab.close(reason)
	r.m.closed = true
	r.closes++
	r.audit("close")
	type probe struct{ sid, lease string }
	var probes []probe
	before := map[probe]string{}
	for sid, s := range r.m.shards {
		probes = append(probes, probe{sid, "never-issued"})
		for l := range s.issued {
			probes = append(probes, probe{sid, l})
		}
	}
	probes = append(probes, probe{"nope:1:0", "x"})
	for _, p := range probes {
		before[p] = fmt.Sprint(r.tab.check(p.sid, p.lease), "|", r.tab.renew(p.sid, p.lease, r.now))
	}
	r.tab.entomb()
	for _, p := range probes {
		if after := fmt.Sprint(r.tab.check(p.sid, p.lease), "|", r.tab.renew(p.sid, p.lease, r.now)); after != before[p] {
			r.t.Fatalf("tombstone answers %s/%s with %q, the closed table said %q", p.sid, p.lease, after, before[p])
		}
	}
	r.audit("entomb")
	if r.tab.grant(r.m.order[0], "late", 99, "w", r.now) {
		r.t.Fatalf("a tombstone took a grant")
	}
	r.start()
}

// pickLease returns a shard and a token to try on it: mostly one it was
// granted (current or superseded), sometimes another shard's, sometimes
// one nobody issued, sometimes a shard of a round gone by.
func (r *tableRun) pickLease() (sid, lease string) {
	sid = r.m.order[r.rng.Intn(len(r.m.order))]
	from := sid
	switch r.rng.Intn(10) {
	case 0:
		return sid, "never-issued"
	case 1:
		from = r.m.order[r.rng.Intn(len(r.m.order))]
	case 2:
		return "nope:1:0", "x"
	case 3:
		if len(r.past) > 0 {
			sid = r.past[r.rng.Intn(len(r.past))]
			from = sid
		}
	}
	if toks := r.tokens[from]; len(toks) > 0 {
		lease = toks[len(toks)-1] // the current holder's
		if r.rng.Intn(2) == 0 {
			lease = toks[r.rng.Intn(len(toks))]
		}
	}
	return sid, lease
}

func (r *tableRun) step() {
	switch op := r.rng.Intn(20); {
	case op < 4: // claim
		worker := fmt.Sprintf("w%d", r.rng.Intn(3))
		ss := r.tab.claimable(r.now, worker)
		want := r.m.claimable(r.now, worker)
		if (ss == nil) != (want == "") || (ss != nil && ss.id != want) {
			r.t.Fatalf("claimable: table %v, model %q", ss, want)
		}
		if ss == nil {
			return
		}
		r.leases++
		lease, epoch := fmt.Sprintf("L%d", r.leases), ss.epoch+1
		// AppendSync: the grant and everything batched before it are durable.
		r.wal = append(append(r.wal, r.tail...), store.ControlRecord{Kind: store.CtlGrant,
			Gen: r.tab.gen, Shard: ss.id, Lease: lease, Epoch: epoch, Worker: worker})
		r.tail = nil
		if !r.tab.grant(ss.id, lease, epoch, worker, r.now.Add(r.ttl)) {
			r.t.Fatalf("grant of a claimable shard refused")
		}
		s := r.m.shards[want]
		s.epoch, s.worker, s.until, s.restored = s.epoch+1, worker, r.now.Add(r.ttl), false
		s.issued[lease] = s.epoch
		r.tokens[want] = append(r.tokens[want], lease)
		r.high[want] = max(r.high[want], epoch)
	case op < 7: // an idle worker's empty batch
		r.batch(false)
	case op < 10: // the clock moves, sometimes past every lease
		r.now = r.now.Add(time.Duration(r.rng.Int63n(int64(2 * r.ttl))))
	case op < 16: // a batch of one record
		r.batch(true)
	case op == 16: // the journal's batch fills: fsync
		r.synced = len(r.jrn)
	case op == 17: // an older build's diagnostics record, batched
		r.tail = append(r.tail, store.ControlRecord{Kind: legacyKinds[r.rng.Intn(len(legacyKinds))],
			Gen: r.tab.gen, Shard: r.m.order[r.rng.Intn(len(r.m.order))], Epoch: 1 + r.rng.Int63n(9), Lease: "never-issued"})
	case op == 18: // coordinator crash and restart
		keep := r.synced + r.rng.Intn(len(r.jrn)-r.synced+1)
		r.jrn, r.synced = r.jrn[:keep], keep
		ctl := append(append([]store.ControlRecord(nil), r.wal...), r.tail[:r.rng.Intn(len(r.tail)+1)]...)
		r.wal, r.tail = ctl, nil
		r.now = r.now.Add(time.Duration(r.rng.Int63n(int64(r.ttl))))
		gen := r.tab.gen
		r.tab = newTable(r.id, r.total, r.jrn)
		if g, ok := replay(r.tab, ctl, r.round, r.now.Add(r.ttl)); !ok || g != gen {
			r.t.Fatalf("replay of a durable generation %d: gen %d ok %v", gen, g, ok)
		}
		r.m.restart(r.jrn, r.now.Add(r.ttl))
		r.replays++
	default: // the campaign is cancelled
		if r.rng.Intn(24) == 0 {
			r.finish("cancelled")
		}
	}
}

// batch sends a batch under a picked lease, with one record or none: the
// lease is renewed if it passes, as the model says, and then the record, if
// any, is fresh, a duplicate or foreign, as it falls.
func (r *tableRun) batch(record bool) {
	sid, lease := r.pickLease()
	want := r.m.verdict(sid, lease)
	got := r.tab.renew(sid, lease, r.now.Add(r.ttl))
	if !sameClass(got, want) {
		r.t.Fatalf("renew %s/%s: %v, model says %v", sid, lease, got, want)
	}
	if errors.Is(got, ErrLeaseFenced) {
		r.fences++
	}
	if got != nil {
		return
	}
	s := r.m.shards[sid]
	s.until, s.restored = r.now.Add(r.ttl), false
	if !record {
		return
	}
	i := r.rng.Intn(r.total) // fresh, duplicate or foreign, as it falls
	if r.rng.Intn(2) == 0 {
		i = s.list[r.rng.Intn(len(s.list))] // the shard's own: fresh or duplicate
	}
	if r.tab.owns(sid, i) != s.idx[i] || r.tab.journaled[i] != r.m.journaled[i] {
		r.t.Fatalf("index %d of %s: table owns=%v journaled=%v, model %v %v",
			i, sid, r.tab.owns(sid, i), r.tab.journaled[i], s.idx[i], r.m.journaled[i])
	}
	if !s.idx[i] || r.m.journaled[i] {
		return
	}
	r.jrn = append(r.jrn, i)
	r.m.journaled[i] = true
	s.done = r.m.merged(s) == len(s.idx)
	if done := r.tab.merged(sid, i); done != s.done {
		r.t.Fatalf("merged(%s, %d) reported shard done=%v, model %v", sid, i, done, s.done)
	}
	if r.tab.left > 0 {
		return
	}
	// The round is merged: the journal is synced, then the next round
	// is planned as the next generation — or the campaign is done.
	r.synced = len(r.jrn)
	if len(r.rest) == 0 {
		r.finish("done")
	} else {
		r.plan(r.tab.gen + 1)
	}
}

// audit holds the table to the model and to the fencing invariants.
func (r *tableRun) audit(after string) {
	fail := func(format string, args ...any) {
		r.t.Helper()
		r.t.Fatalf("after %s: "+format, append([]any{after}, args...)...)
	}
	if len(r.tab.order) != len(r.m.order) {
		fail("table has %d shards, model %d", len(r.tab.order), len(r.m.order))
	}
	if r.tab.journaled != nil && r.tab.pending() != r.total-len(r.m.journaled) {
		fail("pending %d, model %d", r.tab.pending(), r.total-len(r.m.journaled))
	}
	left := 0
	for _, s := range r.m.shards {
		if !s.done {
			left++
		}
	}
	if r.tab.left != left {
		fail("%d shards left to merge, model %d", r.tab.left, left)
	}
	for k, sid := range r.m.order {
		ss, s := r.tab.shards[sid], r.m.shards[sid]
		if r.tab.order[k] != sid || ss == nil {
			fail("shard %d is %q, model %q", k, r.tab.order[k], sid)
		}
		if ss.merged != r.m.merged(s) || ss.done != s.done ||
			ss.epoch != s.epoch || ss.worker != s.worker || ss.size != len(s.idx) {
			fail("shard %s: table merged=%d done=%v epoch=%d worker=%q size=%d; model %d %v %d %q %d",
				sid, ss.merged, ss.done, ss.epoch, ss.worker, ss.size,
				r.m.merged(s), s.done, s.epoch, s.worker, len(s.idx))
		}
		// Epochs never decrease, across any number of replays, and the fence
		// is never below a grant that was made.
		if ss.epoch < r.seen[sid] || ss.epoch < r.high[sid] {
			fail("shard %s epoch %d, was %d, highest granted %d", sid, ss.epoch, r.seen[sid], r.high[sid])
		}
		r.seen[sid] = ss.epoch
		// A done shard is never claimable or leased.
		if st := ss.state(r.now); s.done && st != "done" {
			fail("done shard %s reads %q", sid, st)
		}
		// At most one token passes, and never one from a superseded epoch.
		passing := 0
		for lease, e := range s.issued {
			err := r.tab.check(sid, lease)
			if err == nil {
				passing++
			}
			if e < r.high[sid] && (err == nil || (!r.m.closed && !errors.Is(err, ErrLeaseFenced))) {
				fail("lease %s of %s holds epoch %d, %d was granted since, and check says %v",
					lease, sid, e, r.high[sid], err)
			}
		}
		if passing > 1 || (r.m.closed && passing > 0) {
			fail("%d leases pass check on %s (closed=%v)", passing, sid, r.m.closed)
		}
	}
	if ss := r.tab.claimable(r.now, "w0"); ss != nil && (r.m.closed || r.m.shards[ss.id].done) {
		fail("claimable offers %s: closed=%v done=%v", ss.id, r.m.closed, r.m.shards[ss.id].done)
	}
}

// TestTableProperties drives the shard table through generated histories —
// claim, empty batches, expiry by the clock, batches of fresh, duplicate and
// foreign indices (every batch that passes the fence renews its lease), a round's last merge planning the next generation,
// cancellation, and coordinator crashes whose replay sees every synced
// record and an arbitrary prefix of the batched ones — against the
// reference model, checking the fencing invariants after every step. A
// seed that ever fails goes into this table.
func TestTableProperties(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 2026} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			r := &tableRun{t: t, rng: rand.New(rand.NewSource(seed)), ttl: time.Minute,
				now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
			r.start()
			for i := 0; i < 10000; i++ {
				r.step()
				r.audit(fmt.Sprint("step ", i))
			}
			t.Logf("seed %d: %d campaigns, %d rounds, %d closed, %d replays, %d fenced writes",
				seed, r.n, r.rounds, r.closes, r.replays, r.fences)
			if r.closes < 10 || r.rounds-r.n < 5 || r.replays < 50 || r.fences < 50 {
				t.Errorf("the generator no longer reaches closes, later rounds, replays and fenced writes often enough to mean anything")
			}
		})
	}
}

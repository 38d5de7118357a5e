package shard

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/store"
)

// Options tunes the coordinator.
type Options struct {
	// LeaseTTL is how long a claimed shard stays leased without a journal
	// batch before it is re-issued to another worker. Default 15s.
	LeaseTTL time.Duration
	// ShardsPerCampaign caps how many shards a campaign is split into
	// (the planner may produce fewer when there are fewer snapshot
	// clusters). Default 8.
	ShardsPerCampaign int
	// Logger receives shard lifecycle logs. Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.ShardsPerCampaign <= 0 {
		o.ShardsPerCampaign = 8
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Stats is a snapshot of the coordinator's lifetime counters.
type Stats struct {
	ShardsPlanned   int64
	ShardsCompleted int64
	ShardsReissued  int64
	Batches         int64
	RecordsMerged   int64
	RecordsDuped    int64
	LeaseExpiries   int64

	// WALRebuilds counts campaigns whose shard table was rebuilt from a
	// durable WAL plan after a restart; LeasesFenced counts stale-epoch
	// batches refused after a shard re-issue. The WAL's
	// records are counted where they are appended (internal/store).
	WALRebuilds  int64
	LeasesFenced int64
}

// Coordinator plans campaigns into shards, leases them to workers, and
// merges the journal batches workers stream back into the durable store.
// One coordinator drives many campaigns concurrently; each campaign's
// Run call owns the store handle and blocks until the distributed workers
// complete it (or ctx cancels it).
//
// The coordinator is the I/O shell around each campaign's shard table
// (table.go), which owns every protocol transition: it holds the mutex,
// the store and WAL handles, the clock, spans, logs and counters. What
// the control WAL gets is exactly what a restart replays — plans and
// grants, fsynced, since they carry the fencing epochs; the journal is the
// source of truth for merged indices. A restarted coordinator rebuilds its
// state from WAL + journal through the table's own plan and grant.
type Coordinator struct {
	st   *store.Store
	opts Options
	now  func() time.Time // injectable clock for lease-expiry tests

	mu         sync.Mutex
	campaigns  map[string]*campaignRun // every campaign of this lifetime; a closed one is a tombstone
	order      []string                // open campaigns in claim scan order: oldest first
	recovering map[string]bool         // campaigns mid-rebuild: answer ErrRecovering, not ErrUnknownShard
	dead       bool                    // Crash() was called: refuse new registrations
	workers    map[string]*WorkerStat
	stats      Stats         // lifetime counters
	wake       chan struct{} // closed and replaced at every generation planned

	profiles profileCache // shared with in-process workers
}

// campaignRun is one campaign being coordinated: the open store handle,
// the control WAL, the shard table, and the merge state. Once closed it is
// a tombstone (endLocked): the table's ids, reason and per-shard counts —
// enough to answer a late batch with the right typed error and GET
// /v1/shards, and nothing that grows with the campaign's size. The journal
// on disk is the ground truth for everything else.
type campaignRun struct {
	id       string
	spec     store.Spec
	app, gpu string // canonical profile names (may differ from spec aliases)
	c        *store.Campaign
	wal      *store.ControlWAL
	tab      *table

	newExps []core.Experiment // merged this coordinator lifetime
	onExp   func(core.Experiment)

	// sched is the campaign's schedule, fed every merged record: each of its
	// rounds is one generation of the table, and it alone says when the
	// campaign is finished.
	sched *core.Schedule

	// trace/rootSpan are the campaign's distributed-tracing linkage,
	// taken from the service's root span at prepare time; zero when the
	// run is untraced.
	trace    obs.TraceID
	rootSpan obs.SpanID

	res  *core.CampaignResult
	err  error
	done chan struct{} // closed exactly once, when the table closes
}

// WorkerStat is one worker's cumulative control-plane activity, for the
// per-worker /metrics labels: a slow worker shows a recent LastSeen with
// a low merge rate; a dead one stops moving LastSeen entirely.
type WorkerStat struct {
	Worker   string
	Claims   int64
	Batches  int64
	Records  int64
	LastSeen time.Time
}

// NewCoordinator builds a coordinator over st.
func NewCoordinator(st *store.Store, opts Options) *Coordinator {
	return &Coordinator{
		st: st, opts: opts.withDefaults(), now: time.Now,
		campaigns:  make(map[string]*campaignRun),
		recovering: make(map[string]bool),
		workers:    make(map[string]*WorkerStat),
		wake:       make(chan struct{}),
	}
}

// planned returns the channel closed at the next generation the
// coordinator plans. An in-process worker takes it before it claims and
// waits on it after ErrNoWork or ErrRecovering, so a plan that lands
// between the claim and the wait still wakes it.
func (co *Coordinator) planned() <-chan struct{} {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.wake
}

// wakeLocked wakes every worker waiting on planned. Caller holds co.mu.
func (co *Coordinator) wakeLocked() {
	close(co.wake)
	co.wake = make(chan struct{})
}

// touchWorker updates one worker's cumulative stats. Caller holds co.mu.
func (co *Coordinator) touchWorker(name string, claims, batches, records int64) {
	if name == "" {
		return
	}
	ws := co.workers[name]
	if ws == nil {
		ws = &WorkerStat{Worker: name}
		co.workers[name] = ws
	}
	ws.Claims += claims
	ws.Batches += batches
	ws.Records += records
	ws.LastSeen = co.now()
}

// WorkerStats snapshots every worker the coordinator has heard from,
// sorted by name.
func (co *Coordinator) WorkerStats() []WorkerStat {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]WorkerStat, 0, len(co.workers))
	for _, ws := range co.workers {
		out = append(out, *ws)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Worker < out[b].Worker })
	return out
}

// Stats snapshots the lifetime counters.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.stats
}

// MarkRecovering flags a campaign as mid-rebuild: between a coordinator
// restart and the campaign's shard table coming back, control-plane calls
// that would otherwise read as "no work" or "unknown shard" answer
// ErrRecovering, so a parked worker keeps waiting instead of abandoning a
// shard that is about to exist again. The service marks every resumed
// campaign on boot; Run clears the flag on every exit from its
// preparation phase, success or error, and Revoke clears it for a campaign
// deleted before its Run began.
func (co *Coordinator) MarkRecovering(id string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.recovering[id] = true
}

func (co *Coordinator) clearRecovering(id string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	delete(co.recovering, id)
}

// Run coordinates one campaign to completion: open (or resume) the store
// campaign, rebuild the shard table from the control WAL (or plan afresh
// over the pending indices), publish the shards to the claim queue, and
// block until workers have journaled every experiment — then write the
// done record and return the merged result: the experiments a library
// run (core.RunCampaign) of the spec finishes, by id, with its plan report.
// Cancellation closes the campaign to further batches (late ones get
// ErrCampaignClosed), keeps the journal resumable, and returns the partial
// merged result with ctx's error.
func (co *Coordinator) Run(ctx context.Context, id string, spec store.Spec,
	onExp func(core.Experiment)) (*core.CampaignResult, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	if id == "" {
		id = spec.ID()
	}
	run, early, err := co.prepare(ctx, id, spec, onExp)
	if err != nil {
		return nil, err
	}
	if early != nil {
		return early, nil
	}

	select {
	case <-run.done:
	case <-ctx.Done():
		co.mu.Lock()
		co.cancelLocked(run, ctx.Err())
		co.mu.Unlock()
	}
	co.mu.Lock()
	res, runErr := run.res, run.err
	run.res = nil // handed over: the tombstone keeps no experiments
	co.mu.Unlock()
	return res, runErr
}

// prepare opens (or resumes) the campaign, rebuilds or re-plans its shard
// table, and registers the run with the claim queue. It clears the
// campaign's recovering flag on every exit path — success or error — so a
// failed rebuild cannot park workers on 503s forever.
func (co *Coordinator) prepare(ctx context.Context, id string, spec store.Spec,
	onExp func(core.Experiment)) (run *campaignRun, early *core.CampaignResult, err error) {

	defer co.clearRecovering(id)

	cfg, err := spec.Config()
	if err != nil {
		return nil, nil, err
	}
	c, err := co.st.CreateOrResume(id, spec)
	if err != nil {
		return nil, nil, err
	}
	if c.Done {
		return nil, c.MergedResult(nil), nil
	}
	var wal *store.ControlWAL
	defer func() {
		if err != nil {
			c.Close()
			if wal != nil {
				wal.Close()
			}
		}
	}()

	// Distributed-tracing linkage: the service's root span (present on
	// ctx when the run is traced) parents every coordinator-side span
	// and, via the Shard wire fields, every worker-side timeline. All
	// span timestamps use the wall clock, never co.now() — tests inject
	// fake lease clocks that would corrupt timelines.
	trace, rootSpan, _ := obs.TraceFromContext(ctx)

	// The profile is the coordinator's only simulation work: one
	// fault-free run per (application, scale, GPU) and process, enough to
	// plan snapshot clusters. Workers re-derive the same profile
	// deterministically on their side.
	profStart := time.Now()
	prof, err := co.profiles.get(ctx, cfg.App, spec.Scale, cfg.GPU)
	if err != nil {
		return nil, nil, err
	}
	obs.EmitSpan(ctx, "coordinator.profile", profStart,
		obs.Attr{K: "app", V: prof.App}, obs.Attr{K: "gpu", V: prof.GPU})
	cfg.Completed = c.CompletedIDs()
	cfg.PlanPrior = c.Prior

	run = &campaignRun{
		id: id, spec: c.Spec, app: prof.App, gpu: prof.GPU, c: c, onExp: onExp,
		trace: trace, rootSpan: rootSpan, done: make(chan struct{}),
	}
	// The worker count is not part of the campaign (store.SameSpec): its
	// shards run at the count this call asks for, not the stored one.
	run.spec.Workers = spec.Workers

	// The schedule walks the rounds core.RunCampaign walks, from the journal.
	// An adaptive campaign's analytic pre-pass runs once, here: its Masked
	// records are journaled coordinator-side and their indices never enter
	// a shard (on a resume they are already journaled, and the pre-pass only
	// sizes the analytic stratum). They are this lifetime's merges too: they
	// reach the final result's Exps and the caller's progress hook.
	prepassStart := time.Now()
	sched, analytic, err := core.NewSchedule(ctx, cfg, prof)
	if err != nil {
		return nil, nil, err
	}
	run.sched = sched
	if err := c.Record(analytic...); err != nil {
		return nil, nil, err
	}
	for _, e := range analytic {
		e.Trace = nil
		sched.Add(e)
		cfg.Completed = append(cfg.Completed, e.ID)
		run.newExps = append(run.newExps, e)
		if onExp != nil {
			onExp(e)
		}
	}
	if cfg.Plan.Enabled() {
		obs.EmitSpan(ctx, "coordinator.prepass", prepassStart,
			obs.Attr{K: "analytic", V: strconv.Itoa(len(analytic))})
	}
	round := sched.Next()

	// Fsync ordering invariant: the journal is synced BEFORE any control
	// record can reference its state, so a durable plan never presumes
	// appends that a crash could un-write.
	if err := c.Sync(); err != nil {
		return nil, nil, err
	}
	ctl, torn, wal, err := co.st.OpenControlWAL(id)
	if err != nil {
		return nil, nil, err
	}
	run.wal = wal
	if torn {
		co.opts.Logger.Warn("control WAL had a torn final record; cut", "id", id)
	}

	// The table: replayed from the WAL, or the round planned afresh and
	// written to it.
	tableStart, now := time.Now(), co.now()
	tab := newTable(id, c.Spec.Runs, cfg.Completed)
	run.tab = tab
	gen, rebuilt := replay(tab, ctl, round, now.Add(co.opts.LeaseTTL))
	genAttr := obs.Attr{K: "gen", V: strconv.Itoa(gen)}
	if rebuilt {
		live := 0
		for _, ss := range tab.shards {
			if ss.state(now) == "leased" {
				live++
			}
		}
		obs.EmitSpan(ctx, "coordinator.recover", tableStart, genAttr,
			obs.Attr{K: "shards", V: strconv.Itoa(len(tab.order))},
			obs.Attr{K: "live_leases", V: strconv.Itoa(live)})
		co.opts.Logger.Info("shard state rebuilt from control WAL", "id", id,
			"gen", gen, "shards", len(tab.order), "live_leases", live)
	} else {
		if err := co.planRound(run, gen, round); err != nil {
			return nil, nil, err
		}
		obs.EmitSpan(ctx, "coordinator.plan", tableStart, genAttr,
			obs.Attr{K: "shards", V: strconv.Itoa(len(tab.order))})
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	co.stats.ShardsPlanned += int64(len(tab.order))
	if rebuilt {
		co.stats.WALRebuilds++
	}
	if co.dead {
		return nil, nil, errors.New("shard: coordinator crashed")
	}
	if prev, ok := co.campaigns[id]; ok && !prev.tab.closed {
		return nil, nil, fmt.Errorf("shard: campaign %s is already being coordinated", id)
	}
	co.campaigns[id] = run
	co.order = append(co.order, id)
	co.opts.Logger.Info("campaign sharded", "id", id, "gen", gen,
		"shards", len(tab.order), "pending", tab.pending())
	if tab.left == 0 {
		// Nothing to merge in this generation: the campaign was journaled
		// whole, or its stop rule already holds.
		co.nextRoundLocked(run)
	} else {
		co.wakeLocked()
	}
	return run, nil, nil
}

// planRound plans round as generation gen of run's table: its shards go to
// the control WAL — the plan records, then the generation-complete marker,
// one fsync for the set — and then into the table. A crash mid-plan leaves
// a generation without its plan_done, and the next lifetime discards it and
// re-plans.
func (co *Coordinator) planRound(run *campaignRun, gen int, round []int) error {
	idxs := run.sched.Shards(round, co.opts.ShardsPerCampaign)
	parts := make([]part, len(idxs))
	for k := range idxs {
		parts[k] = part{id: fmt.Sprintf("%s:%d:%d", run.id, gen, k), indices: idxs[k]}
	}
	for _, p := range parts {
		if err := run.wal.Append(store.ControlRecord{Kind: store.CtlPlan,
			Gen: gen, Shard: p.id, Indices: p.indices}); err != nil {
			return err
		}
	}
	fsyncStart := time.Now()
	if err := run.wal.AppendSync(store.ControlRecord{Kind: store.CtlPlanDone,
		Gen: gen, Count: len(parts)}); err != nil {
		return err
	}
	obs.EmitInTrace(run.trace, run.rootSpan, "coordinator", "wal.fsync",
		fsyncStart, obs.Attr{K: "kind", V: "plan_done"})
	run.tab.plan(gen, parts)
	return nil
}

// nextRoundLocked is the one place a campaign's next step is decided, each
// time its current generation has nothing left to merge: the schedule's
// next round becomes the next generation, or, once the schedule says stop,
// the campaign is finalized. Both callers have just synced the journal, so
// a durable plan never presumes outcomes a crash could un-write. Workers
// that finished their shards early poll until the round's last shard
// merges. Caller holds co.mu.
func (co *Coordinator) nextRoundLocked(run *campaignRun) {
	round := run.sched.Next()
	if round == nil {
		co.finalizeLocked(run)
		return
	}
	gen := run.tab.gen + 1
	if err := co.planRound(run, gen, round); err != nil {
		co.endLocked(run, "failed", nil, fmt.Errorf("shard: plan round %d of %s: %w", gen, run.id, err))
		return
	}
	co.stats.ShardsPlanned += int64(len(run.tab.order))
	co.wakeLocked()
	co.opts.Logger.Info("round planned", "id", run.id, "gen", gen,
		"shards", len(run.tab.order), "experiments", len(round))
}

// Revoke closes a campaign to further claims and journal batches without
// waiting for its Run to observe cancellation: outstanding leases die and
// late batches get ErrCampaignClosed. The service calls it on DELETE so
// the 409 is immediate rather than racing the context teardown. A campaign
// deleted before its Run started is no longer recovering either: no Run
// will ever clear the flag, and claims would answer ErrRecovering forever.
func (co *Coordinator) Revoke(id string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	delete(co.recovering, id)
	if run, ok := co.campaigns[id]; ok {
		co.cancelLocked(run, context.Canceled)
	}
}

// cancelLocked closes a campaign that is still open as cancelled: Run
// returns the partial merged result with err. Caller holds co.mu.
func (co *Coordinator) cancelLocked(run *campaignRun, err error) {
	if run.tab.closed {
		return
	}
	co.opts.Logger.Info("campaign coordination cancelled", "id", run.id,
		"merged", run.tab.total-run.tab.pending(), "total", run.tab.total)
	co.endLocked(run, "cancelled", run.result(), err)
}

// Crash simulates the coordinator process dying, for the chaos harness:
// every open campaign unblocks with an error, and NO handle is flushed,
// synced, or closed — the journal's and control WAL's buffered tails are
// lost exactly as a SIGKILL would lose them, while everything already
// fsynced survives for the next coordinator lifetime to rebuild from. A
// crashed coordinator refuses all further work.
func (co *Coordinator) Crash() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.dead = true
	for _, run := range co.campaigns {
		if !run.tab.closed {
			co.endLocked(run, "failed", nil, errors.New("shard: coordinator crashed"))
		}
	}
	co.opts.Logger.Warn("coordinator crashed (simulated)")
}

// Claim hands the oldest claimable shard to a worker: one never leased,
// one whose lease expired, or one whose lease replay restored to this very
// worker (table.claimable); a held shard's holder is presumed dead, and it
// is re-issued at the next epoch, fencing the old token. The grant is
// fsynced to the control WAL before the lease exists in memory: an epoch
// may only fence workers if it is guaranteed to survive this coordinator.
func (co *Coordinator) Claim(worker string) (*Shard, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.now()
	for _, id := range co.order {
		run := co.campaigns[id]
		ss := run.tab.claimable(now, worker)
		if ss == nil {
			continue
		}
		claimStart, lease, epoch := time.Now(), newLease(), ss.epoch+1
		if err := run.wal.AppendSync(store.ControlRecord{Kind: store.CtlGrant,
			Gen: run.tab.gen, Shard: ss.id, Lease: lease, Epoch: epoch, Worker: worker}); err != nil {
			return nil, fmt.Errorf("shard: journal grant for %s: %v", ss.id, err)
		}
		obs.EmitInTrace(run.trace, run.rootSpan, "coordinator", "wal.fsync",
			claimStart, obs.Attr{K: "kind", V: "grant"}, obs.Attr{K: "shard", V: ss.id})
		if ss.curLease != "" {
			co.stats.LeaseExpiries++
			co.stats.ShardsReissued++
			co.opts.Logger.Warn("holder presumed dead; re-issuing shard",
				"shard", ss.id, "dead_worker", ss.worker, "to", worker, "epoch", epoch)
		}
		run.tab.grant(ss.id, lease, epoch, worker, now.Add(co.opts.LeaseTTL))
		sh := &Shard{
			ID: ss.id, Campaign: id, Spec: run.spec, Indices: ss.indices,
			Lease: lease, LeaseTTLMS: co.opts.LeaseTTL.Milliseconds(), Epoch: epoch,
		}
		if !run.trace.IsZero() {
			// Stamped per grant, not per plan: a rebuilt shard table and
			// a re-issued shard both inherit the campaign's original
			// trace, so successor workers extend the same timeline.
			sh.Trace = run.trace.String()
			sh.Span = run.rootSpan.String()
		}
		co.touchWorker(worker, 1, 0, 0)
		obs.EmitInTrace(run.trace, run.rootSpan, "coordinator", "coordinator.claim",
			claimStart, obs.Attr{K: "shard", V: ss.id}, obs.Attr{K: "worker", V: worker},
			obs.Attr{K: "epoch", V: strconv.FormatInt(epoch, 10)})
		co.opts.Logger.Info("shard claimed", "shard", ss.id, "worker", worker,
			"indices", ss.size, "epoch", epoch, "reissues", ss.reissues())
		return sh, nil
	}
	if len(co.recovering) > 0 {
		return nil, fmt.Errorf("%w: shard table rebuilding", ErrRecovering)
	}
	return nil, ErrNoWork
}

// fencedLocked counts a refusal that was the fence at work.
func (co *Coordinator) fencedLocked(err error) error {
	if errors.Is(err, ErrLeaseFenced) {
		co.stats.LeasesFenced++
	}
	return err
}

// Ingest merges one journal batch into the campaign's store and renews the
// lease it came under: a batch is the worker's heartbeat, and one with no
// records is how an idle worker keeps its lease (it costs no fsync). Its new
// experiments as one journal group, synced once before anything is merged
// or answered, so an acknowledged record survives a crash. Records for
// indices already journaled — a batch replayed after a worker death and
// shard re-issue, a straggler whose lease expired, or a retry whose answer
// was lost — are deduplicated; determinism guarantees the same bytes. A
// traced experiment's trace rides in its record; one that names another
// experiment makes the batch malformed, and a malformed batch journals
// nothing. A lease from a superseded epoch is fenced (only the re-issued
// shard's successor may write), and batches against a closed campaign are
// refused with ErrCampaignClosed so they cannot resurrect it.
func (co *Coordinator) Ingest(b Batch) (*BatchResult, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.stats.Batches++
	run, err := co.findLocked(b.Shard)
	if err != nil {
		return nil, err
	}
	if b.Campaign != "" && b.Campaign != run.id {
		return nil, fmt.Errorf("%w: batch names campaign %s, shard belongs to %s",
			ErrBadBatch, b.Campaign, run.id)
	}
	tab := run.tab
	if err := tab.renew(b.Shard, b.Lease, co.now().Add(co.opts.LeaseTTL)); err != nil {
		return nil, co.fencedLocked(err)
	}
	ss := tab.shards[b.Shard]

	res := &BatchResult{}
	var exps []core.Experiment
	fresh := map[int]bool{} // accepted by this batch
	for _, rec := range b.Records {
		switch rec.Kind {
		case KindExp:
			if rec.Exp == nil {
				return res, fmt.Errorf("%w: exp record without payload", ErrBadBatch)
			}
			exp := *rec.Exp
			if !tab.owns(b.Shard, exp.ID) {
				return res, fmt.Errorf("%w: experiment %d is not in shard %s", ErrBadBatch, exp.ID, b.Shard)
			}
			o, err := avf.ParseOutcome(exp.Effect)
			if err != nil {
				return res, fmt.Errorf("%w: experiment %d: %v", ErrBadBatch, exp.ID, err)
			}
			exp.Outcome = o
			if rec.Trace != nil && rec.Trace.ID != exp.ID {
				return res, fmt.Errorf("%w: experiment %d carries the trace of %d", ErrBadBatch, exp.ID, rec.Trace.ID)
			}
			if rec.Trace != nil && !run.spec.Trace {
				return res, fmt.Errorf("%w: experiment %d carries a trace into an untraced campaign", ErrBadBatch, exp.ID)
			}
			if tab.journaled[exp.ID] || fresh[exp.ID] {
				res.Duplicates++
				continue
			}
			// The store writes it exactly as a single-process run does:
			// quarantine record, outcome, trace.
			fresh[exp.ID] = true
			exp.Trace = rec.Trace
			exps = append(exps, exp)
		case KindSpan:
			if rec.Span == nil {
				return res, fmt.Errorf("%w: span record without payload", ErrBadBatch)
			}
			// Worker spans ride the batch stream because workers have no
			// store of their own. They are observability, not journal state:
			// they route through the trace's registered sink and never count
			// toward Accepted, so journal bytes stay identical to an untraced
			// run. A batch re-sent after a lost answer lands its spans twice;
			// readers of the span log collapse them (obs.ReadSpans).
			if rec.Span.Span != "" {
				obs.EmitRecord(*rec.Span)
			}
		default:
			return res, fmt.Errorf("%w: unknown record kind %q", ErrBadBatch, rec.Kind)
		}
	}
	if err = run.c.Record(exps...); err == nil {
		err = run.c.Sync()
	}
	if err != nil { // what reached the disk is unknown: fail, resumable, rather than answer
		co.endLocked(run, "failed", nil, err)
		return nil, err
	}
	for _, exp := range exps {
		exp.Trace = nil
		if tab.merged(b.Shard, exp.ID) {
			co.stats.ShardsCompleted++
			co.opts.Logger.Info("shard complete", "shard", b.Shard, "worker", ss.worker)
		}
		run.newExps = append(run.newExps, exp)
		run.sched.Add(exp)
		if run.onExp != nil {
			run.onExp(exp)
		}
	}
	res.Accepted = len(exps)
	co.stats.RecordsMerged += int64(res.Accepted)
	co.stats.RecordsDuped += int64(res.Duplicates)
	co.touchWorker(ss.worker, 0, 1, int64(res.Accepted))

	res.ShardDone = ss.done
	if tab.left == 0 {
		co.nextRoundLocked(run)
		if run.err != nil {
			return res, run.err
		}
		res.CampaignDone = tab.closed
	}
	return res, nil
}

// result is the campaign's merged result as of now: the journal's prior
// plus what this lifetime merged.
func (run *campaignRun) result() *core.CampaignResult {
	return run.c.MergedResult(&core.CampaignResult{App: run.app, GPU: run.gpu,
		Exps: append([]core.Experiment(nil), run.newExps...)})
}

// finalizeLocked completes a campaign whose schedule has no round left:
// journal closed, done record, terminal state. Caller holds co.mu.
func (co *Coordinator) finalizeLocked(run *campaignRun) {
	if run.tab.closed {
		return
	}
	finStart := time.Now()
	merged := run.result()
	merged.Plan = run.sched.Report()
	reason := "done"
	err := run.c.Finish(merged, run.wal)
	if err != nil {
		reason = "failed"
	}
	co.endLocked(run, reason, merged, err)
	obs.EmitInTrace(run.trace, run.rootSpan, "coordinator", "coordinator.finalize",
		finStart, obs.Attr{K: "state", V: reason},
		obs.Attr{K: "experiments", V: strconv.Itoa(len(merged.Exps))})
	co.opts.Logger.Info("campaign merged", "id", run.id, "state", reason,
		"experiments", len(merged.Exps))
}

// endLocked is the one way a campaign leaves the coordinator, whatever
// ended it — merged, cancelled, revoked or crashed: the table
// closes under reason, Run's result and error are set, the journal and the
// control WAL are flushed and closed (its job is over once nothing can be
// granted) — unless the coordinator itself died, which flushes nothing —
// Run unblocks, and the run shrinks to its tombstone: the store handles,
// the merge sets, the schedule, this lifetime's experiments and every
// shard's index list go (run.res follows once Run has returned it), and
// the campaign leaves the claim scan. Caller holds co.mu.
func (co *Coordinator) endLocked(run *campaignRun, reason string, res *core.CampaignResult, err error) {
	run.tab.close(reason)
	run.res, run.err = res, err
	if !co.dead {
		run.c.Close()
		if werr := run.wal.Close(); werr != nil {
			co.opts.Logger.Warn("control WAL close failed", "id", run.id, "err", werr)
		}
	}
	close(run.done)
	run.tab.entomb()
	run.c, run.wal, run.sched, run.onExp, run.newExps = nil, nil, nil, nil, nil
	for i, id := range co.order {
		if id == run.id {
			co.order = append(co.order[:i], co.order[i+1:]...)
			break
		}
	}
}

// findLocked resolves a shard id to the campaign that holds it. Shard ids
// are campaign:gen:k and campaign ids cannot contain ':', so when the id
// is unknown but its campaign prefix is mid-rebuild the caller gets
// ErrRecovering — park and retry — instead of ErrUnknownShard.
func (co *Coordinator) findLocked(shardID string) (*campaignRun, error) {
	campaign, _, _ := strings.Cut(shardID, ":")
	if run := co.campaigns[campaign]; run != nil && run.tab.shards[shardID] != nil {
		return run, nil
	}
	if co.recovering[campaign] {
		return nil, fmt.Errorf("%w: campaign %s is rebuilding its shard table",
			ErrRecovering, campaign)
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownShard, shardID)
}

// Statuses snapshots every tracked shard, ordered by campaign then shard.
func (co *Coordinator) Statuses() []Status {
	co.mu.Lock()
	defer co.mu.Unlock()
	var out []Status
	ids := make([]string, 0, len(co.campaigns))
	for id := range co.campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	now := co.now()
	for _, id := range ids {
		tab := co.campaigns[id].tab
		for _, sid := range tab.order {
			ss := tab.shards[sid]
			st := Status{
				ID: sid, Campaign: id, State: ss.state(now), Indices: ss.size,
				Merged: ss.merged, Worker: ss.worker, Reissues: ss.reissues(),
			}
			if st.State == "pending" {
				st.Worker = ""
			}
			out = append(out, st)
		}
	}
	return out
}

// newLease returns a random 128-bit lease token.
func newLease() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("shard: lease entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

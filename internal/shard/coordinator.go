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
	"gpufi/internal/plan"
	"gpufi/internal/store"
)

// Options tunes the coordinator.
type Options struct {
	// LeaseTTL is how long a claimed shard stays leased without a
	// heartbeat before it is re-issued to another worker. Default 15s.
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

	// ShardsRetired counts shards withdrawn because their campaign's
	// adaptive stop rule converged before they merged; ExperimentsSaved is
	// the experiments those campaigns never had to run.
	ShardsRetired    int64
	ExperimentsSaved int64

	// WALRecords counts control-plane WAL records this coordinator
	// appended; WALRebuilds counts campaigns whose shard table was rebuilt
	// from a durable WAL plan after a restart; LeasesFenced counts
	// stale-epoch heartbeats and batches refused after a shard re-issue.
	WALRecords   int64
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
	stats      Stats // lifetime counters
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

	mergedTraces map[int]bool
	newExps      []core.Experiment // merged this coordinator lifetime
	onExp        func(core.Experiment)

	// tracker is the adaptive campaign's stratified interval estimator
	// (nil for fixed-N campaigns); simulated counts the simulated records
	// merged across the campaign's whole life — seeded from the journal
	// tally on a resume so the final report's strata add up.
	tracker   *plan.Tracker
	simulated int

	// trace/rootSpan are the campaign's distributed-tracing linkage,
	// taken from the service's root span at prepare time; zero when the
	// run is untraced. mergedSpans dedups worker span records across
	// batch re-sends by span ID.
	trace       obs.TraceID
	rootSpan    obs.SpanID
	mergedSpans map[string]bool

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
	}
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
// sharded campaign on boot; Run clears the flag on every exit from its
// preparation phase, success or error.
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
// completion marker and return the merged result, exactly as a local
// store.Run would have. Cancellation closes the campaign to further
// batches (late ones get ErrCampaignClosed), keeps the journal resumable,
// and returns the partial merged result with ctx's error.
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
	var c *store.Campaign
	if co.st.Exists(id) {
		c, err = co.st.Resume(id)
		if err == nil && !store.SameSpec(c.Spec, spec) {
			err = fmt.Errorf("store: campaign %s exists with a different spec; choose another id", id)
		}
	} else {
		c, err = co.st.Create(id, spec)
	}
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
	if spec.Trace {
		if err := c.EnableTraces(); err != nil {
			return nil, nil, err
		}
	}

	// Distributed-tracing linkage: the service's root span (present on
	// ctx when the run is traced) parents every coordinator-side span
	// and, via the Shard wire fields, every worker-side timeline. All
	// span timestamps use the wall clock, never co.now() — tests inject
	// fake lease clocks that would corrupt timelines.
	trace, rootSpan, _ := obs.TraceFromContext(ctx)

	// The profile is the coordinator's only simulation work: one
	// fault-free run, enough to plan snapshot clusters. Workers re-derive
	// the same profile deterministically on their side.
	profStart := time.Now()
	prof, err := core.ProfileApp(ctx, cfg.App, cfg.GPU)
	if err != nil {
		return nil, nil, err
	}
	obs.EmitSpan(ctx, "coordinator.profile", profStart,
		obs.Attr{K: "app", V: prof.App}, obs.Attr{K: "gpu", V: prof.GPU})
	cfg.Completed = c.CompletedIDs()

	run = &campaignRun{
		id: id, spec: c.Spec, app: prof.App, gpu: prof.GPU, c: c, onExp: onExp,
		trace: trace, rootSpan: rootSpan,
		mergedTraces: make(map[int]bool), mergedSpans: make(map[string]bool),
		done: make(chan struct{}),
	}

	// Adaptive campaigns: the coordinator owns the stop rule. The analytic
	// pre-pass runs once, here — its Masked records are journaled
	// coordinator-side and their indices never enter a shard — and the
	// stratified tracker is fed from every ingested batch, so the campaign
	// is finalized (and its outstanding shards retired) the moment the
	// interval converges. Workers run their shard's indices fixed-N; the
	// coordinator is the only place the sequential interval is evaluated.
	// On a post-crash resume the pre-pass is a no-op append-wise (the
	// analytic records are already journaled) but still seeds the tracker.
	// The analytic records are this lifetime's merges too: they reach the
	// final result's Exps and the caller's progress hook.
	if cfg.Plan.Enabled() {
		prepassStart := time.Now()
		recs, err := core.PlanAnalytic(ctx, cfg, prof)
		if err != nil {
			return nil, nil, err
		}
		var pending []core.Experiment
		run.tracker, pending = core.SeedAdaptive(cfg, recs, c.Counts)
		run.simulated = run.tracker.Counts().Total()
		for _, e := range pending {
			if err := c.Append(e); err != nil {
				return nil, nil, err
			}
			if e.Trace != nil {
				if err := c.AppendTrace(*e.Trace); err != nil {
					return nil, nil, err
				}
				e.Trace = nil
			}
			cfg.Completed = append(cfg.Completed, e.ID)
			run.newExps = append(run.newExps, e)
			if onExp != nil {
				onExp(e)
			}
		}
		obs.EmitSpan(ctx, "coordinator.prepass", prepassStart,
			obs.Attr{K: "analytic", V: strconv.Itoa(len(recs))})
	}
	for _, i := range cfg.Completed {
		run.mergedTraces[i] = true
	}

	// Fsync ordering invariant: the journal is synced BEFORE any control
	// record can reference its state, so a durable plan never presumes
	// analytic appends that a crash could un-write.
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

	// The table: replayed from the WAL, or planned afresh and written to it.
	tableStart, now := time.Now(), co.now()
	tab := newTable(id, c.Spec.Runs, cfg.Completed)
	run.tab = tab
	gen, rebuilt := replay(tab, ctl, now.Add(co.opts.LeaseTTL))
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
		idxs, err := core.PlanShards(cfg, prof, co.opts.ShardsPerCampaign)
		if err != nil {
			return nil, nil, err
		}
		parts := make([]part, len(idxs))
		for k := range idxs {
			parts[k] = part{id: fmt.Sprintf("%s:%d:%d", id, gen, k), indices: idxs[k]}
		}
		tab.plan(gen, parts)
		// Journal the plan, then the generation-complete marker, one fsync
		// for the set: a crash mid-plan leaves a generation without its
		// plan_done, and the next lifetime discards it and re-plans.
		for _, p := range parts {
			if err := wal.Append(store.ControlRecord{Kind: store.CtlPlan,
				Gen: gen, Shard: p.id, Indices: p.indices}); err != nil {
				return nil, nil, err
			}
		}
		fsyncStart := time.Now()
		if err := wal.AppendSync(store.ControlRecord{Kind: store.CtlPlanDone,
			Gen: gen, Count: len(parts)}); err != nil {
			return nil, nil, err
		}
		obs.EmitSpan(ctx, "wal.fsync", fsyncStart, obs.Attr{K: "kind", V: "plan_done"})
		obs.EmitSpan(ctx, "coordinator.plan", tableStart, genAttr,
			obs.Attr{K: "shards", V: strconv.Itoa(len(parts))})
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	co.stats.ShardsPlanned += int64(len(tab.order))
	if rebuilt {
		co.stats.WALRebuilds++
	} else {
		co.stats.WALRecords += int64(len(tab.order)) + 1
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
	switch {
	case tab.pending() == 0:
		// Nothing pending (fully journaled campaign resumed, or the
		// pre-pass covered every remaining index): finalize now.
		co.finalizeLocked(run)
	case run.tracker != nil && run.tracker.Satisfied():
		// The resumed prior (plus the analytic stratum) already meets the
		// rule: no shard ever gets claimed.
		co.satisfyLocked(run)
	}
	return run, nil, nil
}

// Revoke closes a campaign to further claims and journal batches without
// waiting for its Run to observe cancellation: outstanding leases die and
// late batches get ErrCampaignClosed. The service calls it on DELETE so
// the 409 is immediate rather than racing the context teardown.
func (co *Coordinator) Revoke(id string) {
	co.mu.Lock()
	defer co.mu.Unlock()
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

// Claim hands the oldest claimable shard to a worker: a shard never
// leased, or one whose lease expired (its worker is presumed dead; the
// shard is re-issued under a fresh token at the next epoch, fencing the
// old one). The grant is fsynced to the control WAL before the lease
// exists in memory: an epoch may only fence workers if it is guaranteed
// to survive this coordinator.
func (co *Coordinator) Claim(worker string) (*Shard, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := co.now()
	for _, id := range co.order {
		run := co.campaigns[id]
		ss := run.tab.claimable(now)
		if ss == nil {
			continue
		}
		claimStart := time.Now()
		lease, epoch := newLease(), ss.epoch+1
		fsyncStart := time.Now()
		if err := run.wal.AppendSync(store.ControlRecord{Kind: store.CtlGrant,
			Gen: run.tab.gen, Shard: ss.id, Lease: lease, Epoch: epoch, Worker: worker}); err != nil {
			return nil, fmt.Errorf("shard: journal grant for %s: %v", ss.id, err)
		}
		co.stats.WALRecords++
		obs.EmitInTrace(run.trace, run.rootSpan, "coordinator", "wal.fsync",
			fsyncStart, obs.Attr{K: "kind", V: "grant"}, obs.Attr{K: "shard", V: ss.id})
		if ss.curLease != "" {
			co.stats.LeaseExpiries++
			co.stats.ShardsReissued++
			co.opts.Logger.Warn("lease expired; re-issuing shard",
				"shard", ss.id, "dead_worker", ss.worker, "to", worker, "epoch", epoch)
		}
		run.tab.grant(ss.id, lease, epoch, worker, now.Add(co.opts.LeaseTTL))
		sh := &Shard{
			ID: ss.id, Campaign: id, Spec: run.spec, Indices: ss.indices,
			Clusters: 1, // clusters per shard not exposed by the planner
			Lease:    lease, LeaseTTLMS: co.opts.LeaseTTL.Milliseconds(), Epoch: epoch,
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

// Heartbeat extends a live lease. An unknown token gets ErrLeaseRevoked; a
// known token from a superseded epoch gets ErrLeaseFenced — the signal for
// a straggling worker to abandon the shard (someone else owns it now).
func (co *Coordinator) Heartbeat(shardID, lease string) (*HeartbeatResult, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	run, err := co.findLocked(shardID)
	if err != nil {
		return nil, err
	}
	if err := run.tab.renew(shardID, lease, co.now().Add(co.opts.LeaseTTL)); err != nil {
		return nil, co.fencedLocked(err)
	}
	co.touchWorker(run.tab.shards[shardID].worker, 0, 0, 0)
	return &HeartbeatResult{Lease: lease, ExpiresInMS: co.opts.LeaseTTL.Milliseconds()}, nil
}

// fencedLocked counts a refusal that was the fence at work.
func (co *Coordinator) fencedLocked(err error) error {
	if errors.Is(err, ErrLeaseFenced) {
		co.stats.LeasesFenced++
	}
	return err
}

// Ingest merges one journal batch into the campaign's store. Records for
// indices already journaled — a batch replayed after a worker death and
// shard re-issue, a straggler whose lease expired, or a worker re-sending
// after a coordinator restart lost its acknowledged merges — are
// deduplicated idempotently; the simulator's determinism guarantees the
// duplicate would have carried the same bytes anyway. A lease from a
// superseded epoch is fenced (the shard was re-issued; only the successor
// may write), and batches against a closed campaign are refused with
// ErrCampaignClosed so they cannot resurrect it.
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
	if err := tab.check(b.Shard, b.Lease); err != nil {
		return nil, co.fencedLocked(err)
	}
	ss := tab.shards[b.Shard]

	res := &BatchResult{}
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
			if tab.journaled[exp.ID] {
				res.Duplicates++
				co.stats.RecordsDuped++
				continue
			}
			// Same order as the local engine's collector: the quarantine
			// record is written (synced) ahead of the batched outcome
			// record, so resume semantics match a single-process run.
			if exp.Quarantined {
				if err := run.c.Quarantine(exp); err != nil {
					return res, err
				}
			}
			if err := run.c.Append(exp); err != nil {
				return res, err
			}
			if tab.merged(b.Shard, exp.ID) {
				co.stats.ShardsCompleted++
				co.opts.Logger.Info("shard complete", "shard", b.Shard, "worker", ss.worker)
			}
			run.newExps = append(run.newExps, exp)
			res.Accepted++
			co.stats.RecordsMerged++
			if run.tracker != nil {
				run.tracker.Add(exp.Outcome)
				run.simulated++
			}
			if run.onExp != nil {
				run.onExp(exp)
			}
		case KindTrace:
			if rec.Trace == nil {
				return res, fmt.Errorf("%w: trace record without payload", ErrBadBatch)
			}
			if !tab.owns(b.Shard, rec.Trace.ID) {
				return res, fmt.Errorf("%w: trace %d is not in shard %s", ErrBadBatch, rec.Trace.ID, b.Shard)
			}
			if run.mergedTraces[rec.Trace.ID] {
				res.Duplicates++
				co.stats.RecordsDuped++
				continue
			}
			if err := run.c.AppendTrace(*rec.Trace); err != nil {
				return res, err
			}
			run.mergedTraces[rec.Trace.ID] = true
			res.Accepted++
			co.stats.RecordsMerged++
		case KindSpan:
			if rec.Span == nil {
				return res, fmt.Errorf("%w: span record without payload", ErrBadBatch)
			}
			// Worker spans ride the batch stream because workers have no
			// store of their own. They are observability, not journal state:
			// dedup replayed re-sends, route through the trace's registered
			// sink, and never count toward Accepted — journal bytes stay
			// identical to an untraced run. The dedup key includes the
			// duration because a parent span's provisional announce (dur 0)
			// and its final record share a span ID, and both must land.
			sp := *rec.Span
			if sp.Span == "" {
				continue
			}
			key := sp.Span + ":" + strconv.FormatInt(sp.DurUS, 10)
			if run.mergedSpans[key] {
				continue
			}
			run.mergedSpans[key] = true
			obs.EmitRecord(sp)
		default:
			return res, fmt.Errorf("%w: unknown record kind %q", ErrBadBatch, rec.Kind)
		}
	}
	co.touchWorker(ss.worker, 0, 1, int64(res.Accepted))

	res.ShardDone = ss.done
	switch {
	case tab.pending() == 0:
		co.finalizeLocked(run)
		if run.err != nil {
			return res, run.err
		}
		res.CampaignDone = true
	case run.tracker != nil && run.tracker.Satisfied():
		co.satisfyLocked(run)
		if run.err != nil {
			return res, run.err
		}
		res.Satisfied = true
		res.ShardDone = true
		res.CampaignDone = true
	}
	return res, nil
}

// satisfyLocked finalizes a campaign whose adaptive stop rule converged
// before every shard merged: outstanding shards are retired (their workers
// learn on the next batch or heartbeat), the saving is recorded, and the
// campaign completes exactly like a fully merged one — the done marker
// carries the plan report with the skipped count. Caller holds co.mu.
func (co *Coordinator) satisfyLocked(run *campaignRun) {
	if run.tab.closed {
		return
	}
	retired := run.tab.retire()
	co.stats.ShardsRetired += int64(retired)
	co.stats.ExperimentsSaved += int64(run.tab.pending())
	co.opts.Logger.Info("campaign satisfied; retiring shards", "id", run.id,
		"merged", run.tab.total-run.tab.pending(), "total", run.tab.total, "retired", retired)
	co.finalizeLocked(run)
}

// result is the campaign's merged result as of now: the journal's prior
// plus what this lifetime merged.
func (run *campaignRun) result() *core.CampaignResult {
	return run.c.MergedResult(&core.CampaignResult{App: run.app, GPU: run.gpu,
		Exps: append([]core.Experiment(nil), run.newExps...)})
}

// finalizeLocked completes a merged (or satisfied) campaign: sync, done
// marker, terminal state. Caller holds co.mu.
func (co *Coordinator) finalizeLocked(run *campaignRun) {
	if run.tab.closed {
		return
	}
	finStart := time.Now()
	merged := run.result()
	if run.tracker != nil {
		merged.Plan = &core.PlanReport{Status: run.tracker.Status(),
			Simulated: run.simulated, Skipped: run.tab.pending()}
	}
	reason := "done"
	err := co.st.ClearCancelled(run.id)
	if err == nil {
		err = run.c.Finish(merged)
	}
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
// ended it — merged, satisfied, cancelled, revoked or crashed: the table
// closes under reason, Run's result and error are set, the journal and the
// control WAL are flushed and closed (its job is over once nothing can be
// granted) — unless the coordinator itself died, which flushes nothing —
// Run unblocks, and the run shrinks to its tombstone: the store handles,
// the merge sets, this lifetime's experiments and every shard's index list
// go (run.res follows once Run has returned it), and the campaign leaves
// the claim scan. Caller holds co.mu.
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
	run.c, run.wal, run.tracker, run.onExp = nil, nil, nil, nil
	run.mergedTraces, run.mergedSpans, run.newExps = nil, nil, nil
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

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
	"sync/atomic"
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
// Every control-plane transition is journaled to the campaign's control
// WAL: plans and grants synchronously (they carry the fencing epochs),
// renewals and merges batched (the journal is the source of truth for
// merged indices; losing their tail costs nothing). A restarted
// coordinator rebuilds its full in-memory state from WAL + journal.
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

	shardsPlanned    atomic.Int64
	shardsCompleted  atomic.Int64
	shardsReissued   atomic.Int64
	batches          atomic.Int64
	recordsMerged    atomic.Int64
	recordsDuped     atomic.Int64
	leaseExpiries    atomic.Int64
	shardsRetired    atomic.Int64
	experimentsSaved atomic.Int64
	walRecords       atomic.Int64
	walRebuilds      atomic.Int64
	leasesFenced     atomic.Int64
}

// campaignRun is one campaign being coordinated: the open store handle,
// the control WAL, the shard table, and the merge state. Once closed it is
// a tombstone (entombLocked): id, reason, and what GET /v1/shards reports
// per shard — enough to answer a late batch with the right typed error and
// nothing that grows with the campaign's size. The journal on disk is the
// ground truth for everything else.
type campaignRun struct {
	id       string
	spec     store.Spec
	app, gpu string // canonical profile names (may differ from spec aliases)
	c        *store.Campaign
	wal      *store.ControlWAL
	gen      int // plan generation the shard table belongs to
	shards   map[string]*shardState
	sorder   []string // shard issue order (cycle order)

	merged       map[int]bool // experiment indices journaled (incl. prior)
	mergedTraces map[int]bool
	total        int
	newExps      []core.Experiment // merged this coordinator lifetime
	onExp        func(core.Experiment)

	// tracker is the adaptive campaign's stratified interval estimator
	// (nil for fixed-N campaigns); simulated counts the simulated records
	// merged across the campaign's whole life — seeded from the journal
	// tally on a resume so the final report's strata add up — and
	// satisfied marks an early finalize.
	tracker   *plan.Tracker
	simulated int
	satisfied bool

	// trace/rootSpan are the campaign's distributed-tracing linkage,
	// taken from the service's root span at prepare time; zero when the
	// run is untraced. mergedSpans dedups worker span records across
	// batch re-sends by span ID.
	trace       obs.TraceID
	rootSpan    obs.SpanID
	mergedSpans map[string]bool

	closed bool   // no more claims/batches; reason says why
	reason string // "done" | "cancelled" | "failed"
	res    *core.CampaignResult
	err    error
	done   chan struct{} // closed exactly once, on any terminal state
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

// shardState is the coordinator-side view of one shard.
type shardState struct {
	shard    Shard // Lease fields empty; filled per claim
	indexSet map[int]bool
	size     int              // len(indexSet), kept past the tombstone
	merged   int              // how many of them are journaled
	leases   map[string]int64 // token -> epoch it was granted at
	epoch    int64            // current issue number; only this epoch may write
	curLease string
	worker   string
	expiry   time.Time
	done     bool
	retired  bool // withdrawn by adaptive convergence, not merged
	reissues int
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
	return Stats{
		ShardsPlanned:    co.shardsPlanned.Load(),
		ShardsCompleted:  co.shardsCompleted.Load(),
		ShardsReissued:   co.shardsReissued.Load(),
		Batches:          co.batches.Load(),
		RecordsMerged:    co.recordsMerged.Load(),
		RecordsDuped:     co.recordsDuped.Load(),
		LeaseExpiries:    co.leaseExpiries.Load(),
		ShardsRetired:    co.shardsRetired.Load(),
		ExperimentsSaved: co.experimentsSaved.Load(),
		WALRecords:       co.walRecords.Load(),
		WALRebuilds:      co.walRebuilds.Load(),
		LeasesFenced:     co.leasesFenced.Load(),
	}
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
		if !run.closed {
			run.closed = true
			run.reason = "cancelled"
			partial := &core.CampaignResult{App: run.app, GPU: run.gpu,
				Exps: append([]core.Experiment(nil), run.newExps...)}
			run.res = run.c.MergedResult(partial)
			run.err = ctx.Err()
			run.c.Close()
			co.closeWALLocked(run)
			close(run.done)
			co.opts.Logger.Info("campaign coordination cancelled", "id", id,
				"merged", len(run.merged), "total", run.total)
			co.entombLocked(run)
		}
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
	onExp func(core.Experiment)) (*campaignRun, *core.CampaignResult, error) {

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
	if spec.Trace {
		if err := c.EnableTraces(); err != nil {
			c.Close()
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
		c.Close()
		return nil, nil, err
	}
	obs.EmitSpan(ctx, "coordinator.profile", profStart,
		obs.Attr{K: "app", V: prof.App}, obs.Attr{K: "gpu", V: prof.GPU})
	cfg.Completed = c.CompletedIDs()

	// Adaptive campaigns: the coordinator owns the stop rule. The analytic
	// pre-pass runs once, here — its Masked records are journaled
	// coordinator-side and their indices never enter a shard — and the
	// stratified tracker is fed from every ingested batch, so the campaign
	// is finalized (and its outstanding shards retired) the moment the
	// interval converges. Workers run their shard's indices fixed-N; the
	// coordinator is the only place the sequential interval is evaluated.
	// On a post-crash resume the pre-pass is a no-op append-wise (the
	// analytic records are already journaled) but still seeds the tracker.
	var (
		tracker        *plan.Tracker
		analyticExps   []core.Experiment
		priorSimulated int
	)
	if cfg.Plan.Enabled() {
		prepassStart := time.Now()
		tracker = plan.NewTracker(*cfg.Plan)
		recs, err := core.PlanAnalytic(ctx, cfg, prof)
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		prior := c.Counts
		journaled := make(map[int]bool, len(cfg.Completed))
		for _, i := range cfg.Completed {
			journaled[i] = true
		}
		completedAnalytic := 0
		for _, e := range recs {
			if journaled[e.ID] {
				completedAnalytic++
				continue
			}
			if err := c.Append(e); err != nil {
				c.Close()
				return nil, nil, err
			}
			if e.Trace != nil {
				if err := c.AppendTrace(*e.Trace); err != nil {
					c.Close()
					return nil, nil, err
				}
				e.Trace = nil
			}
			cfg.Completed = append(cfg.Completed, e.ID)
			analyticExps = append(analyticExps, e)
		}
		tracker.AddAnalytic(len(recs))
		tracker.SetStratum(c.Spec.Runs - len(recs))
		// The journaled tally pools both strata; peel the analytic Masked
		// records off so only simulated outcomes enter the binomial.
		prior.Masked -= completedAnalytic
		if prior.Masked < 0 {
			prior.Masked = 0
		}
		tracker.AddCounts(prior)
		priorSimulated = prior.Total()
		obs.EmitSpan(ctx, "coordinator.prepass", prepassStart,
			obs.Attr{K: "analytic", V: strconv.Itoa(len(recs))})
	}

	// Fsync ordering invariant: the journal is synced BEFORE any control
	// record can reference its state, so a durable plan never presumes
	// analytic appends that a crash could un-write.
	if err := c.Sync(); err != nil {
		c.Close()
		return nil, nil, err
	}
	ctl, torn, wal, err := co.st.OpenControlWAL(id)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	if torn {
		co.opts.Logger.Warn("control WAL had a torn final record; cut", "id", id)
	}

	run := &campaignRun{
		id: id, spec: c.Spec, app: prof.App, gpu: prof.GPU,
		c: c, wal: wal, total: c.Spec.Runs, onExp: onExp,
		tracker: tracker, simulated: priorSimulated,
		trace: trace, rootSpan: rootSpan,
		shards: make(map[string]*shardState),
		merged: make(map[int]bool), mergedTraces: make(map[int]bool),
		mergedSpans: make(map[string]bool),
		done:        make(chan struct{}),
	}
	for _, i := range cfg.Completed {
		run.merged[i] = true
		run.mergedTraces[i] = true
	}
	// The analytic records are this lifetime's merges too: they must reach
	// the final result's Exps and the caller's progress hook.
	run.newExps = append(run.newExps, analyticExps...)
	if onExp != nil {
		for _, e := range analyticExps {
			onExp(e)
		}
	}

	tableStart := time.Now()
	if rb, ok := rebuildFromWAL(ctl, run.merged, run.total, co.now(), co.opts.LeaseTTL); ok {
		run.gen = rb.gen
		run.shards = rb.shards
		run.sorder = rb.sorder
		for _, ss := range run.shards {
			ss.shard.Campaign = id
			ss.shard.Spec = c.Spec
		}
		co.walRebuilds.Add(1)
		co.shardsPlanned.Add(int64(len(run.sorder)))
		obs.EmitSpan(ctx, "coordinator.recover", tableStart,
			obs.Attr{K: "gen", V: strconv.Itoa(run.gen)},
			obs.Attr{K: "shards", V: strconv.Itoa(len(run.sorder))},
			obs.Attr{K: "live_leases", V: strconv.Itoa(rb.liveLeases)})
		co.opts.Logger.Info("shard state rebuilt from control WAL", "id", id,
			"gen", run.gen, "shards", len(run.sorder), "live_leases", rb.liveLeases)
	} else {
		parts, err := core.PlanShards(cfg, prof, co.opts.ShardsPerCampaign)
		if err != nil {
			c.Close()
			wal.Close()
			return nil, nil, err
		}
		run.gen = maxGen(ctl) + 1
		for k, idxs := range parts {
			sid := fmt.Sprintf("%s:%d:%d", id, run.gen, k)
			set := make(map[int]bool, len(idxs))
			for _, i := range idxs {
				set[i] = true
			}
			run.shards[sid] = &shardState{
				shard: Shard{
					ID: sid, Campaign: id, Spec: c.Spec,
					Indices: idxs, Clusters: 1, // clusters per shard not exposed by the planner
				},
				indexSet: set, size: len(idxs), // a plan covers pending indices only: merged 0
				leases: make(map[string]int64),
			}
			run.sorder = append(run.sorder, sid)
		}
		// Journal the plan, then the generation-complete marker, one fsync
		// for the set: a crash mid-plan leaves a generation without its
		// plan_done, and the next lifetime discards it and re-plans.
		for _, sid := range run.sorder {
			ss := run.shards[sid]
			if err := wal.Append(store.ControlRecord{Kind: store.CtlPlan,
				Gen: run.gen, Shard: sid, Indices: ss.shard.Indices}); err != nil {
				c.Close()
				wal.Close()
				return nil, nil, err
			}
			co.walRecords.Add(1)
		}
		fsyncStart := time.Now()
		if err := wal.AppendSync(store.ControlRecord{Kind: store.CtlPlanDone,
			Gen: run.gen, Count: len(run.sorder)}); err != nil {
			c.Close()
			wal.Close()
			return nil, nil, err
		}
		obs.EmitSpan(ctx, "wal.fsync", fsyncStart, obs.Attr{K: "kind", V: "plan_done"})
		co.walRecords.Add(1)
		co.shardsPlanned.Add(int64(len(parts)))
		obs.EmitSpan(ctx, "coordinator.plan", tableStart,
			obs.Attr{K: "gen", V: strconv.Itoa(run.gen)},
			obs.Attr{K: "shards", V: strconv.Itoa(len(parts))})
	}

	co.mu.Lock()
	if co.dead {
		co.mu.Unlock()
		c.Close()
		wal.Close()
		return nil, nil, errors.New("shard: coordinator crashed")
	}
	if prev, ok := co.campaigns[id]; ok && !prev.closed {
		co.mu.Unlock()
		c.Close()
		wal.Close()
		return nil, nil, fmt.Errorf("shard: campaign %s is already being coordinated", id)
	}
	co.campaigns[id] = run
	co.order = append(co.order, id)
	switch {
	case len(run.merged) == run.total:
		// Nothing pending (fully journaled campaign resumed, or the
		// pre-pass covered every remaining index): finalize now.
		co.finalizeLocked(run, prof.App, prof.GPU)
	case tracker != nil && tracker.Satisfied():
		// The resumed prior (plus the analytic stratum) already meets the
		// rule: no shard ever gets claimed.
		co.satisfyLocked(run)
	}
	co.mu.Unlock()
	co.opts.Logger.Info("campaign sharded", "id", id, "gen", run.gen,
		"shards", len(run.sorder), "pending", run.total-len(cfg.Completed))
	return run, nil, nil
}

// Revoke closes a campaign to further claims and journal batches without
// waiting for its Run to observe cancellation: outstanding leases die and
// late batches get ErrCampaignClosed. The service calls it on DELETE so
// the 409 is immediate rather than racing the context teardown.
func (co *Coordinator) Revoke(id string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	run, ok := co.campaigns[id]
	if !ok || run.closed {
		return
	}
	run.closed = true
	run.reason = "cancelled"
	run.res = run.c.MergedResult(&core.CampaignResult{
		App: run.app, GPU: run.gpu,
		Exps: append([]core.Experiment(nil), run.newExps...)})
	run.err = context.Canceled
	run.c.Close()
	co.closeWALLocked(run)
	close(run.done)
	co.entombLocked(run)
	co.opts.Logger.Info("campaign revoked", "id", id)
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
		if run.closed {
			continue
		}
		run.closed = true
		run.reason = "failed"
		run.err = errors.New("shard: coordinator crashed")
		run.wal = nil // deliberately leaked: a crash flushes nothing
		close(run.done)
		co.entombLocked(run)
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
		for _, sid := range run.sorder {
			ss := run.shards[sid]
			if ss.done {
				continue
			}
			if ss.curLease != "" && now.Before(ss.expiry) {
				continue
			}
			expired := ss.curLease != ""
			if expired {
				co.walAppend(run, store.ControlRecord{Kind: store.CtlExpire,
					Shard: sid, Lease: ss.curLease, Epoch: ss.epoch, Worker: ss.worker})
			}
			claimStart := time.Now()
			lease := newLease()
			epoch := ss.epoch + 1
			if run.wal != nil {
				fsyncStart := time.Now()
				if err := run.wal.AppendSync(store.ControlRecord{Kind: store.CtlGrant,
					Gen: run.gen, Shard: sid, Lease: lease, Epoch: epoch, Worker: worker}); err != nil {
					return nil, fmt.Errorf("shard: journal grant for %s: %v", sid, err)
				}
				co.walRecords.Add(1)
				obs.EmitInTrace(run.trace, run.rootSpan, "coordinator", "wal.fsync",
					fsyncStart, obs.Attr{K: "kind", V: "grant"}, obs.Attr{K: "shard", V: sid})
			}
			if expired {
				co.leaseExpiries.Add(1)
				co.shardsReissued.Add(1)
				ss.reissues++
				co.opts.Logger.Warn("lease expired; re-issuing shard",
					"shard", sid, "dead_worker", ss.worker, "to", worker, "epoch", epoch)
			}
			ss.epoch = epoch
			ss.leases[lease] = epoch
			ss.curLease = lease
			ss.worker = worker
			ss.expiry = now.Add(co.opts.LeaseTTL)
			sh := ss.shard // copy
			sh.Lease = lease
			sh.LeaseTTLMS = co.opts.LeaseTTL.Milliseconds()
			sh.Epoch = epoch
			if !run.trace.IsZero() {
				// Stamped per grant, not per plan: a rebuilt shard table and
				// a re-issued shard both inherit the campaign's original
				// trace, so successor workers extend the same timeline.
				sh.Trace = run.trace.String()
				sh.Span = run.rootSpan.String()
			}
			co.touchWorker(worker, 1, 0, 0)
			obs.EmitInTrace(run.trace, run.rootSpan, "coordinator", "coordinator.claim",
				claimStart, obs.Attr{K: "shard", V: sid}, obs.Attr{K: "worker", V: worker},
				obs.Attr{K: "epoch", V: strconv.FormatInt(epoch, 10)})
			co.opts.Logger.Info("shard claimed", "shard", sid, "worker", worker,
				"indices", len(sh.Indices), "epoch", epoch, "reissues", ss.reissues)
			return &sh, nil
		}
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
	run, ss, err := co.findLocked(shardID)
	if err != nil {
		return nil, err
	}
	if run.closed {
		if run.satisfied {
			return nil, fmt.Errorf("%w: campaign %s converged", ErrCampaignSatisfied, run.id)
		}
		return nil, fmt.Errorf("%w: campaign %s is %s", ErrCampaignClosed, run.id, run.reason)
	}
	if ss.done {
		return nil, fmt.Errorf("%w: shard %s is complete", ErrCampaignClosed, shardID)
	}
	epoch, ok := ss.leases[lease]
	if !ok {
		return nil, fmt.Errorf("%w: shard %s does not recognize this lease", ErrLeaseRevoked, shardID)
	}
	if epoch != ss.epoch {
		co.leasesFenced.Add(1)
		return nil, fmt.Errorf("%w: shard %s was re-issued at epoch %d (lease holds epoch %d)",
			ErrLeaseFenced, shardID, ss.epoch, epoch)
	}
	ss.expiry = co.now().Add(co.opts.LeaseTTL)
	co.touchWorker(ss.worker, 0, 0, 0)
	co.walAppend(run, store.ControlRecord{Kind: store.CtlRenew,
		Shard: shardID, Lease: lease, Epoch: epoch})
	return &HeartbeatResult{Lease: lease, ExpiresInMS: co.opts.LeaseTTL.Milliseconds()}, nil
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
	co.batches.Add(1)
	run, ss, err := co.findLocked(b.Shard)
	if err != nil {
		return nil, err
	}
	if b.Campaign != "" && b.Campaign != run.id {
		return nil, fmt.Errorf("%w: batch names campaign %s, shard belongs to %s",
			ErrBadBatch, b.Campaign, run.id)
	}
	if run.closed {
		if run.satisfied {
			return nil, fmt.Errorf("%w: campaign %s converged", ErrCampaignSatisfied, run.id)
		}
		return nil, fmt.Errorf("%w: campaign %s is %s", ErrCampaignClosed, run.id, run.reason)
	}
	epoch, ok := ss.leases[b.Lease]
	if !ok {
		return nil, fmt.Errorf("%w: shard %s does not recognize this lease", ErrLeaseRevoked, b.Shard)
	}
	if epoch != ss.epoch {
		co.leasesFenced.Add(1)
		return nil, fmt.Errorf("%w: shard %s was re-issued at epoch %d (lease holds epoch %d)",
			ErrLeaseFenced, b.Shard, ss.epoch, epoch)
	}

	res := &BatchResult{}
	for _, rec := range b.Records {
		switch rec.Kind {
		case KindExp:
			if rec.Exp == nil {
				return res, fmt.Errorf("%w: exp record without payload", ErrBadBatch)
			}
			exp := *rec.Exp
			if !ss.indexSet[exp.ID] {
				return res, fmt.Errorf("%w: experiment %d is not in shard %s", ErrBadBatch, exp.ID, b.Shard)
			}
			o, err := avf.ParseOutcome(exp.Effect)
			if err != nil {
				return res, fmt.Errorf("%w: experiment %d: %v", ErrBadBatch, exp.ID, err)
			}
			exp.Outcome = o
			if run.merged[exp.ID] {
				res.Duplicates++
				co.recordsDuped.Add(1)
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
			run.merged[exp.ID] = true
			ss.merged++
			run.newExps = append(run.newExps, exp)
			res.Accepted++
			co.recordsMerged.Add(1)
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
			if !ss.indexSet[rec.Trace.ID] {
				return res, fmt.Errorf("%w: trace %d is not in shard %s", ErrBadBatch, rec.Trace.ID, b.Shard)
			}
			if run.mergedTraces[rec.Trace.ID] {
				res.Duplicates++
				co.recordsDuped.Add(1)
				continue
			}
			if err := run.c.AppendTrace(*rec.Trace); err != nil {
				return res, err
			}
			run.mergedTraces[rec.Trace.ID] = true
			res.Accepted++
			co.recordsMerged.Add(1)
		case KindSpan:
			if rec.Span == nil {
				return res, fmt.Errorf("%w: span record without payload", ErrBadBatch)
			}
			// Worker spans ride the batch stream because workers have no
			// store of their own. They are observability, not journal state:
			// dedup replayed re-sends, route through the trace's registered
			// sink, and never count toward Accepted — CtlMerge counts stay
			// journal-only and journal bytes stay identical to an untraced
			// run. The dedup key includes the duration because a parent
			// span's provisional announce (dur 0) and its final record share
			// a span ID, and both must land.
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
	if res.Accepted > 0 {
		co.walAppend(run, store.ControlRecord{Kind: store.CtlMerge,
			Shard: b.Shard, Epoch: epoch, Count: res.Accepted})
	}

	if !ss.done && ss.merged == ss.size {
		ss.done = true
		co.shardsCompleted.Add(1)
		co.walAppend(run, store.ControlRecord{Kind: store.CtlShardDone, Shard: b.Shard})
		co.opts.Logger.Info("shard complete", "shard", b.Shard, "worker", ss.worker)
	}
	res.ShardDone = ss.done
	switch {
	case len(run.merged) == run.total:
		co.finalizeLocked(run, run.app, run.gpu)
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
	if run.closed {
		return
	}
	run.satisfied = true
	retired := 0
	for _, sid := range run.sorder {
		ss := run.shards[sid]
		if !ss.done {
			ss.done = true
			ss.retired = true
			retired++
			co.walAppend(run, store.ControlRecord{Kind: store.CtlRetire, Shard: sid})
		}
	}
	co.shardsRetired.Add(int64(retired))
	co.experimentsSaved.Add(int64(run.total - len(run.merged)))
	co.opts.Logger.Info("campaign satisfied; retiring shards", "id", run.id,
		"merged", len(run.merged), "total", run.total, "retired", retired)
	co.finalizeLocked(run, run.app, run.gpu)
}

// finalizeLocked completes a fully merged campaign: sync, done marker,
// terminal state, and the control WAL's finalize record (then the WAL is
// closed — its job is over once the done marker exists). Caller holds
// co.mu.
func (co *Coordinator) finalizeLocked(run *campaignRun, app, gpu string) {
	if run.closed {
		return
	}
	finStart := time.Now()
	merged := run.c.MergedResult(&core.CampaignResult{
		App: app, GPU: gpu, Exps: append([]core.Experiment(nil), run.newExps...)})
	if run.tracker != nil {
		merged.Plan = &core.PlanReport{Status: run.tracker.Status(),
			Simulated: run.simulated, Skipped: run.total - len(run.merged)}
	}
	run.closed = true
	if err := co.st.ClearCancelled(run.id); err != nil {
		run.reason, run.err = "failed", err
	} else if err := run.c.Finish(merged); err != nil {
		run.reason, run.err = "failed", err
	} else {
		run.reason = "done"
		if run.satisfied {
			co.walAppend(run, store.ControlRecord{Kind: store.CtlFinalize, Reason: "satisfied"})
		} else {
			co.walAppend(run, store.ControlRecord{Kind: store.CtlFinalize, Reason: "done"})
		}
	}
	co.closeWALLocked(run)
	run.res = merged
	close(run.done)
	co.entombLocked(run)
	obs.EmitInTrace(run.trace, run.rootSpan, "coordinator", "coordinator.finalize",
		finStart, obs.Attr{K: "state", V: run.reason},
		obs.Attr{K: "experiments", V: strconv.Itoa(len(merged.Exps))})
	co.opts.Logger.Info("campaign merged", "id", run.id, "state", run.reason,
		"experiments", len(merged.Exps))
}

// entombLocked reduces a closed campaign to its tombstone: the store
// handle, the merge sets, this lifetime's experiments and every shard's
// index list go (run.res follows once Run has returned it), and the
// campaign leaves the claim scan. Caller holds co.mu.
func (co *Coordinator) entombLocked(run *campaignRun) {
	run.c, run.tracker, run.onExp = nil, nil, nil
	run.merged, run.mergedTraces, run.mergedSpans, run.newExps = nil, nil, nil, nil
	for _, ss := range run.shards {
		ss.shard, ss.indexSet, ss.leases = Shard{}, nil, nil
	}
	for i, id := range co.order {
		if id == run.id {
			co.order = append(co.order[:i], co.order[i+1:]...)
			break
		}
	}
}

// walAppend journals a diagnostics-grade control record, best-effort: a
// failed append is logged, never fatal — the experiment journal, not the
// WAL, is the source of truth for merge state, and the next grant
// re-syncs the file anyway. Caller holds co.mu.
func (co *Coordinator) walAppend(run *campaignRun, rec store.ControlRecord) {
	if run.wal == nil {
		return
	}
	rec.Gen = run.gen
	if err := run.wal.Append(rec); err != nil {
		co.opts.Logger.Warn("control WAL append failed", "id", run.id,
			"kind", rec.Kind, "err", err)
		return
	}
	co.walRecords.Add(1)
}

// closeWALLocked flushes and closes the campaign's control WAL. Caller
// holds co.mu.
func (co *Coordinator) closeWALLocked(run *campaignRun) {
	if run.wal == nil {
		return
	}
	if err := run.wal.Close(); err != nil {
		co.opts.Logger.Warn("control WAL close failed", "id", run.id, "err", err)
	}
	run.wal = nil
}

// findLocked resolves a shard id to its campaign and shard state. Shard
// ids are campaign:gen:k and campaign ids cannot contain ':', so when the
// id is unknown but its campaign prefix is mid-rebuild the caller gets
// ErrRecovering — park and retry — instead of ErrUnknownShard.
func (co *Coordinator) findLocked(shardID string) (*campaignRun, *shardState, error) {
	campaign, _, _ := strings.Cut(shardID, ":")
	if run := co.campaigns[campaign]; run != nil {
		if ss, ok := run.shards[shardID]; ok {
			return run, ss, nil
		}
	}
	if co.recovering[campaign] {
		return nil, nil, fmt.Errorf("%w: campaign %s is rebuilding its shard table",
			ErrRecovering, campaign)
	}
	return nil, nil, fmt.Errorf("%w: %s", ErrUnknownShard, shardID)
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
		run := co.campaigns[id]
		for _, sid := range run.sorder {
			ss := run.shards[sid]
			st := Status{
				ID: sid, Campaign: id, Indices: ss.size, Merged: ss.merged,
				Worker: ss.worker, Reissues: ss.reissues,
			}
			switch {
			case ss.retired:
				st.State = "retired"
			case ss.done:
				st.State = "done"
			case ss.curLease != "" && now.Before(ss.expiry):
				st.State = "leased"
			default:
				st.State = "pending"
				st.Worker = ""
			}
			out = append(out, st)
		}
	}
	return out
}

// maxGen returns the highest plan generation the WAL has seen — complete
// or not; a fresh plan must never reuse a generation a crash abandoned.
func maxGen(ctl []store.ControlRecord) int {
	g := 0
	for _, r := range ctl {
		if (r.Kind == store.CtlPlan || r.Kind == store.CtlPlanDone) && r.Gen > g {
			g = r.Gen
		}
	}
	return g
}

// newLease returns a random 128-bit lease token.
func newLease() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("shard: lease entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

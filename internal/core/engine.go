package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/obs"
	"gpufi/internal/sim"
)

// This file is the snapshot-and-fork campaign scheduler. Simulating every
// experiment from cycle 0 re-runs the fault-free prefix each time, which is
// the dominant cost at paper-scale run counts (injection cycles average
// half the execution, so ~half of every experiment is redundant work).
// The engine instead sorts the experiment batch by injection cycle, groups
// nearby cycles into clusters, and runs the fault-free prefix ONCE: at
// each cluster's snapshot cycle the prefix captures the GPU, hands the
// capture to the workers and runs on towards the next one while the
// cluster's experiments fork from it — each one skipping straight to just
// before its injection instant. Because the simulator is
// deterministic, a fork is bit-identical to a run from cycle 0; the
// package's tests hold it to a full-replay oracle (oracle_test.go).
//
// The unit of work is a set of campaign points over one application and
// one GPU. A snapshot does not depend on what will be injected into it, so
// an evaluation's whole (kernel, structure) matrix shares one prefix run
// and one cluster plan; a campaign is the set of one.

// forksReused counts experiments that ran on a vessel already holding the
// previous experiment's state (Refork), the process-wide counterpart of the
// vessels built from nothing that internal/sim counts. Reuse dominating
// creation is what keeps per-experiment cost low; gpufi-serve exposes the
// ratio on /metrics. EngineStats (obsstats.go) folds both into the full
// phase-counter view.
var forksReused atomic.Int64

// point is one campaign point of an engine run: the config whose hooks
// receive its records, its plan, and the indices of it this run executes
// (the plan's pending list, or one adaptive round of it). A run is a set of
// points over one application and one GPU; the application, the GPU, the
// worker count and the prefix settings are the first point's.
type point struct {
	cfg     *CampaignConfig
	plan    *campaignPlan
	pending []int
	col     *collector
}

// job names one experiment of a run: point ordinal and index within it.
type job struct{ p, i int }

// cluster is a group of experiments whose injection cycles are close
// enough to share one snapshot, taken one cycle before the earliest: a range
// of the run's one sorted job list.
type cluster struct {
	snapCycle uint64
	lo        int   // index of jobs[0] in the run's job list
	jobs      []job // ascending by (injection cycle, point, index)
}

// clusterSpanDivisor bounds how much post-snapshot prefix a fork may have
// to re-simulate: a cluster never spans more than total-window-cycles /
// clusterSpanDivisor, so per-experiment redundancy stays under ~1.6% of
// the execution while the prefix takes at most that many snapshots.
const clusterSpanDivisor = 64

// windowCursor finds the invocation window holding a cycle, for cycles
// asked in ascending order over windows sorted by Start and disjoint: one
// monotone walk instead of a scan per experiment.
type windowCursor struct {
	windows []sim.CycleWindow
	at      int
}

// start returns the Start of the window holding cycle, 0 if none does.
// Injection cycles are drawn from (Start, End]: the fault fires entering
// the cycle, so Start+1 is the earliest instant.
func (c *windowCursor) start(cycle uint64) uint64 {
	for c.at < len(c.windows) && cycle > c.windows[c.at].End {
		c.at++
	}
	if c.at < len(c.windows) && cycle > c.windows[c.at].Start {
		return c.windows[c.at].Start
	}
	return 0
}

// planClusters merges the points' pending experiments into one list sorted
// by (injection cycle, point, index) and greedily packs it into clusters.
// A snapshot at cycle c does not depend on the structure or kernel being
// injected, so experiments of different points share one. Clusters never
// cross an invocation-window boundary — a snapshot is most useful inside
// the launch it will resume — and the span bound is sized from the union of
// the points' windows. Only pending indices are planned: on a resumed
// campaign the already-journaled experiments need no snapshot. For one
// point the plan is exactly the plan of that campaign alone, which is what
// lets a coordinator's PlanShards and its workers agree.
func planClusters(points []*point) []cluster {
	var order []job
	var windows []sim.CycleWindow
	for p, pt := range points {
		if pt.plan.absent {
			continue
		}
		for _, i := range pt.pending {
			order = append(order, job{p, i})
		}
		windows = append(windows, pt.plan.windows...)
	}
	cycleOf := func(j job) uint64 { return points[j.p].plan.specs[j.i].Cycle }
	sort.Slice(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if ca, cb := cycleOf(ja), cycleOf(jb); ca != cb {
			return ca < cb
		}
		if ja.p != jb.p {
			return ja.p < jb.p
		}
		return ja.i < jb.i
	})
	// Points of one kernel bring the same windows: keep each once.
	sort.Slice(windows, func(a, b int) bool { return windows[a].Start < windows[b].Start })
	union := windows[:0]
	var total uint64
	for _, w := range windows {
		if len(union) == 0 || w != union[len(union)-1] {
			union = append(union, w)
			total += w.Width()
		}
	}
	maxSpan := total / clusterSpanDivisor
	if maxSpan < 1 {
		maxSpan = 1
	}
	cur := windowCursor{windows: union}
	var out []cluster
	var curWin uint64
	for n, j := range order {
		c := cycleOf(j)
		w := cur.start(c)
		if len(out) == 0 || w != curWin || c-(out[len(out)-1].snapCycle+1) > maxSpan {
			out = append(out, cluster{snapCycle: c - 1, lo: n})
			curWin = w
		}
		cl := &out[len(out)-1]
		cl.jobs = order[cl.lo : n+1 : n+1]
	}
	return out
}

// runPoints executes the points' pending experiments on the snapshot-and-
// fork path, as a two-stage pipeline: one fault-free prefix run for the
// whole set captures a snapshot at each cluster's cycle, and workers started
// once per run walk the sorted job list, each experiment on a fork of its
// cluster's snapshot, each reporting to its own point's collector — so a
// point's hooks receive exactly the records they would receive from a run of
// that point alone. The prefix runs one cluster ahead: having published
// cluster k it simulates and captures towards k+1 while the workers execute
// k, and waits at k+1 only until k has drained. After the last cluster it
// aborts (its suffix is never needed). The run's devices — the prefix
// device, the two snapshot templates it recycles in turn and one vessel per
// worker — are borrowed from the device pool and go back when the run ends.
// Results are in point order; after a cancellation, or a prefix that ended
// early, they hold what finished.
func runPoints(ctx context.Context, prof *Profile, points []*point) ([]*CampaignResult, error) {
	for _, pt := range points {
		pt.col = newCollector(pt.cfg, pt.cfg.Runs)
		if !pt.plan.absent {
			continue
		}
		// Structure not present for this kernel/card: every fault is
		// trivially masked (e.g. shared memory in a kernel that uses none).
		// The experiments are still materialized so journals and logs
		// round-trip the same counts as any other campaign.
		for _, i := range pt.pending {
			exp := Experiment{
				ID: i, Outcome: avf.Masked, Effect: avf.Masked.String(),
				Cycles: prof.TotalCycles, Detail: "structure absent for kernel",
			}
			if pt.cfg.Trace {
				classifyOnlyTrace(&exp)
			}
			if err := pt.col.add(i, exp); err != nil {
				return nil, err
			}
		}
	}
	results := func() []*CampaignResult {
		out := make([]*CampaignResult, len(points))
		for k, pt := range points {
			out[k] = pt.col.result(prof)
		}
		return out
	}
	clusters := planClusters(points)
	if len(clusters) == 0 {
		// Absent structures, or everything completed in an earlier run:
		// nothing to simulate.
		return results(), nil
	}
	snapCycles := make([]uint64, len(clusters))
	for i, c := range clusters {
		snapCycles[i] = c.snapCycle
	}

	cfg := points[0].cfg
	g, err := sim.Borrow(cfg.GPU)
	if err != nil {
		return nil, err
	}
	g.SetContext(ctx)
	g.SetDeepClone(cfg.deepClone)
	g.EnableRecording()
	// The prefix is fault-free, but bound it anyway so a scheduling bug
	// cannot hang the campaign.
	g.CycleLimit = 4 * prof.TotalCycles

	last := clusters[len(clusters)-1]
	run := &pipeline{ctx: ctx, prof: prof, points: points, clusters: clusters,
		flights: make([]flight, len(clusters)), jobs: last.lo + len(last.jobs)}
	run.wake.L = &run.mu
	var workers sync.WaitGroup
	for w := min(cfg.workerCount(), run.jobs); w > 0; w-- {
		workers.Add(1)
		go func() {
			defer workers.Done()
			run.work()
		}()
	}

	// Tracing: each stretch of the prefix goroutine from one snapshot to the
	// next is an engine.snapshot span — simulating, capturing, and wait_ns of
	// it blocked on the previous cluster (near zero on a prefix-bound run,
	// most of the span on a worker-bound one) — and each cluster's execution
	// an engine.cluster span, which announces itself (provisional record)
	// before any work so per-experiment spans shipped in early batches never
	// reference a parent that a crash kept from completing.
	traced := obs.TraceEnabled(ctx)
	prefixMark := time.Now()
	next := 0
	g.SnapshotAt(snapCycles, func(s *sim.Snapshot) error {
		k := next
		next++
		fl := &run.flights[k]
		fl.snap, fl.ctx, fl.left = s, ctx, len(clusters[k].jobs)
		if traced {
			fl.ctx, fl.span = obs.StartSpan(ctx, "engine.cluster",
				obs.Attr{K: "cluster", V: strconv.Itoa(k)},
				obs.Attr{K: "experiments", V: strconv.Itoa(fl.left)})
			fl.span.Announce()
		}
		waitStart := time.Now()
		err := run.publish(k)
		wait := time.Since(waitStart)
		if err == nil && k > 0 {
			run.retire(g, k-1)
		}
		if traced {
			obs.EmitSpan(ctx, "engine.snapshot", prefixMark,
				obs.Attr{K: "cluster", V: strconv.Itoa(k)},
				obs.Attr{K: "cycle", V: strconv.FormatUint(clusters[k].snapCycle, 10)},
				obs.Attr{K: "wait_ns", V: strconv.FormatInt(wait.Nanoseconds(), 10)})
		}
		prefixMark = time.Now()
		if err == nil && next == len(clusters) {
			err = sim.ErrReplayStop
		}
		return err
	})
	_, runErr := cfg.App.Run(g)
	// Nothing is published after this: workers waiting for a cluster go home.
	run.mu.Lock()
	run.closed = true
	run.wake.Broadcast()
	run.mu.Unlock()
	workers.Wait()
	// Reached by returning, never by a panic unwinding through here: storage
	// a panic left half-written must not reach the pool. The workers released
	// their vessels; the templates still out, two at most, go the same way.
	for k := max(next-2, 0); k < next; k++ {
		run.retire(g, k)
	}
	g.Release()

	err = run.err
	if err == nil && runErr != nil && !errors.Is(runErr, sim.ErrReplayStop) {
		if err = runErr; !isCancel(err) {
			err = fmt.Errorf("core: fault-free prefix run of %s failed: %w", cfg.App.Name, runErr)
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		if isCancel(err) {
			// Cancelled mid-campaign: hand back what finished.
			return results(), err
		}
		return nil, err
	}
	if next != len(clusters) {
		// The prefix run returned cleanly without visiting every snapshot
		// cycle — an app wrapper that swallows launch errors, or a cycle
		// plan past the execution's end. Without this check the campaign
		// would report partial results as a clean success.
		never := 0
		for _, pt := range points {
			never += len(pt.pending) - pt.col.completedCount()
		}
		return results(), fmt.Errorf(
			"core: prefix run of %s finished after %d of %d snapshot clusters: %d experiment(s) never ran",
			cfg.App.Name, next, len(clusters), never)
	}
	return results(), nil
}

// pipeline is what the prefix goroutine and the workers of one run share.
// The prefix publishes clusters in order; workers claim jobs from one cursor
// over the whole list and block only on a job whose cluster has no snapshot
// yet. Two invariants carry the overlap: a template is recycled only after
// every job forked from it has finished unpoisoned (retire), and at most two
// are out at once, because publish(k) returns only when k-1 has drained.
type pipeline struct {
	ctx      context.Context
	prof     *Profile
	points   []*point
	clusters []cluster
	jobs     int          // length of the job list the clusters are ranges of
	cursor   atomic.Int64 // next job to claim

	mu        sync.Mutex
	wake      sync.Cond // published, drained, closed or stopped
	flights   []flight  // by cluster
	published int       // clusters[:published] have their snapshot
	closed    bool      // the prefix has ended: nothing more will be published
	err       error     // cancelled or failed: nothing more is handed out
}

// flight is the run-time side of a published cluster.
type flight struct {
	snap     *sim.Snapshot
	ctx      context.Context // the run's, under the cluster's span when traced
	span     *obs.Span
	left     int  // jobs not finished yet
	poisoned bool // a job panicked or hit its deadline: the template is suspect
}

// publish makes cluster k runnable and blocks until cluster k-1 has drained:
// one cluster ahead and no further. It returns what stopped the run, if
// something did.
func (p *pipeline) publish(k int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.published = k + 1
	p.wake.Broadcast()
	for k > 0 && p.flights[k-1].left > 0 && p.err == nil {
		p.wake.Wait()
	}
	return p.err
}

// stop ends the run early, keeping the first cause. Called with mu held.
func (p *pipeline) stop(err error) {
	if p.err == nil {
		p.err = err
		p.wake.Broadcast()
	}
}

// await blocks until cluster c is published and returns its flight, nil when
// the run was stopped, cancelled or closed first.
func (p *pipeline) await(c int) *flight {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.published <= c && !p.closed && p.err == nil {
		p.wake.Wait()
	}
	if err := p.ctx.Err(); err != nil {
		p.stop(err)
	}
	if p.err != nil || p.published <= c {
		return nil
	}
	return &p.flights[c]
}

// finish books one job of cluster c: a poisoned one marks the cluster's
// template, a failed one stops the run, any other brings it nearer drained.
func (p *pipeline) finish(c int, poisoned bool, err error) {
	p.mu.Lock()
	fl := &p.flights[c]
	fl.poisoned = fl.poisoned || poisoned
	drained := false
	if err != nil {
		p.stop(err)
	} else if fl.left--; fl.left == 0 {
		drained = true
		p.wake.Broadcast()
	}
	p.mu.Unlock()
	if drained {
		fl.span.End() // outside the lock: it calls the run's span sink
	}
}

// retire takes cluster k's template out of the run once no worker can read
// it: every job of the cluster has finished, or every worker has gone home.
// The next capture but one reuses its storage and Release parks it — unless
// an experiment poisoned it or it fails verification: a panicked fork may
// have been killed mid-restore, and recycling suspect storage would silently
// corrupt every later cluster. Such a template is dropped.
func (p *pipeline) retire(g *sim.GPU, k int) {
	fl := &p.flights[k]
	fl.span.End()
	if fl.snap != nil && !fl.poisoned && fl.snap.VerifyStorage() == nil {
		g.RecycleSnapshot(fl.snap)
	}
	fl.snap = nil
}

// work is one worker of the run: it claims jobs in list order until the list
// or the run ends and runs each on its one fork vessel, which after its first
// experiment restores snapshots into the memories and cache arenas it already
// holds, moving only what the experiment and the prefix wrote. A vessel that
// ran a panicked or deadlined experiment is suspect: it is dropped, never
// released to the device pool, and the next experiment starts a new fork.
func (p *pipeline) work() {
	var v *sim.GPU
	c := 0 // the cluster of the job in hand: claims only move forward
	for {
		k := int(p.cursor.Add(1)) - 1
		if k >= p.jobs {
			break
		}
		for k >= p.clusters[c].lo+len(p.clusters[c].jobs) {
			c++
		}
		fl := p.await(c)
		if fl == nil {
			break
		}
		j := p.clusters[c].jobs[k-p.clusters[c].lo]
		pt, i := p.points[j.p], j.i
		forkStart := time.Now()
		if v == nil {
			v = sim.NewFork(fl.snap)
			v.SetDeepClone(p.points[0].cfg.deepClone)
		} else {
			v.Refork(fl.snap)
			forksReused.Add(1)
		}
		observePhase(&phaseForkNanos, forkStart)
		pt.cfg.emitExpSpan(fl.ctx, "engine.fork", forkStart, i)
		exp, poisoned, err := runExperimentSandboxed(fl.ctx, pt.cfg, p.prof, v, pt.plan.specs[i], pt.plan.extras[i], i)
		if poisoned {
			v = nil
			vesselsDiscarded.Add(1)
		}
		if err == nil {
			err = pt.col.add(i, exp)
		}
		p.finish(c, poisoned, err)
		if err != nil {
			break
		}
	}
	if v != nil {
		v.Release()
	}
}

// collector gathers one point's finished experiments, preserving IDs, and
// feeds the point's hooks. It tolerates partial completion (cancellation).
type collector struct {
	cfg  *CampaignConfig
	mu   sync.Mutex
	exps []Experiment
	done []bool
}

func newCollector(cfg *CampaignConfig, n int) *collector {
	return &collector{cfg: cfg, exps: make([]Experiment, n), done: make([]bool, n)}
}

func (c *collector) add(i int, exp Experiment) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exps[i] = exp
	c.done[i] = true
	// The trace is delivered below; don't hold event buffers for the whole
	// campaign in the collector's result slice.
	c.exps[i].Trace = nil
	return c.cfg.deliver(exp)
}

// deliver hands a finished experiment to the campaign's hooks, in the one
// order every path that finishes experiments uses — simulated, absent
// structure, analytic pre-pass: Quarantine, Journal, TraceSink, Progress.
// Callers serialize it.
func (c *CampaignConfig) deliver(exp Experiment) error {
	if exp.Quarantined && c.Quarantine != nil {
		// Write-ahead: the quarantine record must be durable before the
		// (batched) outcome record, so a process crash right after a
		// poison run still leaves the spec marked skip-on-resume.
		if err := c.Quarantine(exp); err != nil {
			return fmt.Errorf("core: quarantine experiment %d: %w", exp.ID, err)
		}
	}
	if c.Journal != nil {
		if err := c.Journal(exp); err != nil {
			return fmt.Errorf("core: journal experiment %d: %w", exp.ID, err)
		}
	}
	if c.TraceSink != nil && exp.Trace != nil {
		if err := c.TraceSink(*exp.Trace); err != nil {
			return fmt.Errorf("core: trace experiment %d: %w", exp.ID, err)
		}
	}
	if c.Progress != nil {
		c.Progress(exp)
	}
	return nil
}

// completedCount returns how many experiments have finished so far.
func (c *collector) completedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range c.done {
		if d {
			n++
		}
	}
	return n
}

// result assembles the campaign result from whatever completed: the full
// experiment list when everything ran, the finished subset otherwise.
func (c *collector) result(prof *Profile) *CampaignResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := &CampaignResult{
		App: prof.App, GPU: prof.GPU, Kernel: c.cfg.Kernel,
		Structure: c.cfg.Structure.String(), Bits: c.cfg.Bits,
		Runs: c.cfg.Runs, Seed: c.cfg.Seed,
	}
	complete := true
	for i := range c.exps {
		if c.done[i] {
			res.Counts.Add(c.exps[i].Outcome)
		} else {
			complete = false
		}
	}
	if complete {
		res.Exps = c.exps
		return res
	}
	for i := range c.exps {
		if c.done[i] {
			res.Exps = append(res.Exps, c.exps[i])
		}
	}
	return res
}

// isCancel reports whether err is a context cancellation or deadline —
// these must propagate as campaign aborts, never classify as Crashes.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

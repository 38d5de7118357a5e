package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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

// point is one campaign point of an engine run: the config whose sink
// receives its records, its plan, and the indices of it this run executes
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
	// Sorted as flat (cycle, point, index) keys: the comparator never
	// reaches through the points for a cycle.
	type key struct {
		cycle uint64
		j     job
	}
	n := 0
	for _, pt := range points {
		if !pt.plan.absent {
			n += len(pt.pending)
		}
	}
	keys := make([]key, 0, n)
	var windows []sim.CycleWindow
	for p, pt := range points {
		if pt.plan.absent {
			continue
		}
		for _, i := range pt.pending {
			keys = append(keys, key{pt.plan.specs[i].Cycle, job{p, i}})
		}
		windows = append(windows, pt.plan.windows...)
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.cycle, b.cycle); c != 0 {
			return c
		}
		if c := cmp.Compare(a.j.p, b.j.p); c != 0 {
			return c
		}
		return cmp.Compare(a.j.i, b.j.i)
	})
	order := make([]job, len(keys))
	for n, k := range keys {
		order[n] = k.j
	}
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
	for n, k := range keys {
		c := k.cycle
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
// point's sink receives exactly the records it would receive from a run of
// that point alone. The prefix runs one cluster ahead of what the workers
// have claimed: having published cluster k it simulates and captures towards
// k+1 while the workers execute k, and waits at k+1 only until every job of
// k has restored from its template — not until the last of them has
// finished, which a long run-on experiment may not do for many clusters.
// After the last cluster it parks for the session's next run (session.go).
// The run's devices — the two snapshot templates the prefix device recycles
// in turn and one vessel per worker — are borrowed from the device pool and
// go back when the run ends; the prefix device goes back with them unless it
// parked. Results are in point order; after a cancellation, or a prefix that
// ended early, they hold what finished.
func (s *Session) runPoints(ctx context.Context, points []*point) ([]*CampaignResult, error) {
	prof := s.prof
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
	last := clusters[len(clusters)-1]
	run := &pipeline{ctx: ctx, prof: prof, points: points, clusters: clusters,
		flights: make([]flight, len(clusters)), jobs: last.lo + len(last.jobs),
		traced: obs.TraceEnabled(ctx)}
	run.wake.L = &run.mu

	p := s.pre
	s.pre = nil
	if p != nil && snapCycles[0] > p.at {
		p.carryOn(run, snapCycles)
	} else {
		if p != nil {
			p.end()
		}
		var err error
		if p, err = startPrefix(run, snapCycles); err != nil {
			return nil, err
		}
	}
	var workers sync.WaitGroup
	for w := min(cfg.workerCount(), run.jobs); w > 0; w-- {
		workers.Add(1)
		go func() {
			defer workers.Done()
			run.work()
		}()
	}
	parked, runErr := p.wait()
	// Nothing is published after this: workers waiting for a cluster go home.
	run.mu.Lock()
	run.closed = true
	run.wake.Broadcast()
	run.mu.Unlock()
	workers.Wait()
	// The workers released their vessels; the spans of clusters a stop left
	// undrained end here, and the templates still out, two at most, go back
	// to the prefix device — unless a panic left it, and perhaps them,
	// half-written: suspect storage must not reach the pool.
	for k := range p.next {
		run.flights[k].end()
	}
	g := p.g
	if p.panicked {
		g = nil
	}
	for k := max(p.next-2, 0); k < p.next; k++ {
		run.retire(g, k)
	}

	err := run.err
	switch {
	case parked && err == nil && ctx.Err() == nil:
		s.pre = p
	case parked:
		p.end()
	case !p.panicked:
		g.Release()
	}
	if err == nil && runErr != nil && !errors.Is(runErr, sim.ErrReplayStop) {
		if err = runErr; !isCancel(err) && !p.panicked {
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
	if !parked {
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
			cfg.App.Name, p.next, len(clusters), never)
	}
	return results(), nil
}

// pipeline is what the prefix goroutine and the workers of one run share.
// The prefix publishes clusters in order; workers claim jobs from one cursor
// over the whole list and block only on a job whose cluster has no snapshot
// yet. Two invariants carry the overlap: a template is recycled only once
// every job of its cluster has let go of it unpoisoned — restored from it, or
// carried on past it (sim.GPU.OnRelease), or returned without reaching it —
// and at most two are out at once, because publish(k) returns only when
// every job of k-1 has let go. An experiment still running after its restore
// reads nothing of its template: it copied the pages and cache lines it
// needs, lane tables never change, and the lane states and shared memory it
// still aliases are slabs no later capture writes (a capture gives the
// template new resident state), so recycling the template under it is safe.
type pipeline struct {
	ctx      context.Context
	prof     *Profile
	points   []*point
	clusters []cluster
	jobs     int          // length of the job list the clusters are ranges of
	traced   bool         // ctx carries a trace: the prefix emits spans
	cursor   atomic.Int64 // next job to claim

	mu        sync.Mutex
	wake      sync.Cond // published, unpinned, closed or stopped
	flights   []flight  // by cluster
	published int       // clusters[:published] have their snapshot
	closed    bool      // the prefix has ended: nothing more will be published
	err       error     // cancelled or failed: nothing more is handed out
}

// flight is the run-time side of a published cluster.
type flight struct {
	snap     *sim.Snapshot
	span     *obs.Span
	ns       phaseNS      // summed over the finished jobs
	awaitNS  int64        // workers blocked waiting for the cluster's publication
	pins     atomic.Int64 // jobs that have not let go of snap yet
	left     int          // jobs not finished yet
	poisoned bool         // a job panicked or hit its deadline holding snap: it is suspect
}

// end closes the cluster's span, once, with its jobs' summed phase times and
// the workers' wait for it.
func (fl *flight) end() {
	if fl.span == nil {
		return
	}
	for n, k := range [...]string{"fork_ns", "execute_ns", "classify_ns"} {
		fl.span.SetAttr(k, strconv.FormatInt(fl.ns[n], 10))
	}
	fl.span.SetAttr("await_ns", strconv.FormatInt(fl.awaitNS, 10))
	fl.span.End()
	fl.span = nil
}

// publish makes cluster k runnable and blocks until every job of cluster k-1
// has let go of its template: one cluster ahead of the workers' claims and no
// further. It returns what stopped the run, if something did.
func (p *pipeline) publish(k int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.published = k + 1
	p.wake.Broadcast()
	for k > 0 && p.flights[k-1].pins.Load() > 0 && p.err == nil {
		p.wake.Wait()
	}
	return p.err
}

// unpin lets go of cluster c's template for one job, marking it suspect first
// if the job panicked or hit its deadline still holding it: it may have died
// mid-restore. Only the last job takes the lock, to wake the prefix.
func (p *pipeline) unpin(c int, poisoned bool) {
	fl := &p.flights[c]
	if poisoned {
		p.mu.Lock()
		fl.poisoned = true
		p.mu.Unlock()
	}
	if fl.pins.Add(-1) == 0 {
		p.mu.Lock()
		p.wake.Broadcast()
		p.mu.Unlock()
	}
}

// stop ends the run early, keeping the first cause. Called with mu held.
func (p *pipeline) stop(err error) {
	if p.err == nil {
		p.err = err
		p.wake.Broadcast()
	}
}

// await blocks until cluster c is published and returns its flight, nil when
// the run was stopped, cancelled or closed first. A wait that blocks is timed
// into gpufi_engine_await_seconds and the cluster's span.
func (p *pipeline) await(c int) *flight {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.published <= c && !p.closed && p.err == nil {
		start := time.Now()
		for p.published <= c && !p.closed && p.err == nil {
			p.wake.Wait()
		}
		d := time.Since(start)
		awaitHist.Observe(d.Seconds())
		p.flights[c].awaitNS += d.Nanoseconds()
	}
	if err := p.ctx.Err(); err != nil {
		p.stop(err)
	}
	if p.err != nil || p.published <= c {
		return nil
	}
	return &p.flights[c]
}

// finish books one job of cluster c and its phase times: a failed job stops
// the run, any other brings the cluster nearer drained, and the last one ends
// its span.
func (p *pipeline) finish(c int, t phaseNS, err error) {
	p.mu.Lock()
	fl := &p.flights[c]
	for n := range t {
		fl.ns[n] += t[n]
	}
	drained := false
	if err != nil {
		p.stop(err)
	} else if fl.left--; fl.left == 0 {
		drained = true
	}
	p.mu.Unlock()
	if drained {
		fl.end() // outside the lock: it calls the run's span sink
	}
}

// retire takes cluster k's template out of the run once no worker can read
// it: every job of the cluster has let go of it, or every worker has gone
// home; its experiments may still be running. The next capture but one
// reuses its storage and Release parks it — unless a job poisoned it or it
// fails verification: a fork that panicked before letting go may have been
// killed mid-restore, and recycling suspect storage would silently corrupt
// every later cluster. Such a template is dropped, and so is every template
// when g is nil.
func (p *pipeline) retire(g *sim.GPU, k int) {
	fl := &p.flights[k]
	if g != nil && fl.snap != nil && !fl.poisoned && fl.snap.VerifyStorage() == nil {
		g.RecycleSnapshot(fl.snap)
	}
	fl.snap = nil
}

// releaseHook, when set, runs on a worker each time a job lets go of its
// template at the snapshot's launch, with the job's experiment index. Only
// tests set it (export_test.go), to hold an experiment after its release.
var releaseHook atomic.Pointer[func(i int)]

// worker is one worker goroutine of a run and the job it has in hand.
type worker struct {
	p      *pipeline
	c      int  // the job's cluster: claims only move forward
	i      int  // the job's experiment index
	pinned bool // the job has not let go of its cluster's template yet
}

// restored is the vessel's OnRelease callback: the job in hand has restored
// from its template or carried on past it, and reads it no more.
func (w *worker) restored() {
	w.unpin(false)
	if hook := releaseHook.Load(); hook != nil {
		(*hook)(w.i)
	}
}

// unpin lets go of the job's template if it still holds it.
func (w *worker) unpin(poisoned bool) {
	if w.pinned {
		w.pinned = false
		w.p.unpin(w.c, poisoned)
	}
}

// work is one worker of the run: it claims jobs in list order until the list
// or the run ends and runs each on its one fork vessel, which after its first
// experiment restores snapshots into the memories and cache arenas it already
// holds, moving only what the experiment and the prefix wrote. A job lets go
// of its template at the snapshot's launch, through the vessel's OnRelease
// callback, or when its experiment returns without having got there. A
// vessel that ran a panicked or deadlined experiment is suspect: it is
// dropped, never released to the device pool, and the next experiment starts
// a new fork.
func (p *pipeline) work() {
	w := &worker{p: p}
	var v *sim.GPU
	for {
		k := int(p.cursor.Add(1)) - 1
		if k >= p.jobs {
			break
		}
		for k >= p.clusters[w.c].lo+len(p.clusters[w.c].jobs) {
			w.c++
		}
		fl := p.await(w.c)
		if fl == nil {
			break
		}
		j := p.clusters[w.c].jobs[k-p.clusters[w.c].lo]
		pt := p.points[j.p]
		w.i, w.pinned = j.i, true
		var t phaseNS
		forkStart := time.Now()
		if v == nil {
			v = sim.NewFork(fl.snap)
			v.OnRelease(w.restored)
		} else {
			v.Refork(fl.snap)
			forksReused.Inc()
		}
		t.phase(0, forkHist, forkStart)
		exp, poisoned, err := runExperimentSandboxed(p.ctx, pt.cfg, p.prof, v, pt.plan.specs[j.i], pt.plan.extras[j.i], j.i, &t)
		w.unpin(poisoned)
		if poisoned {
			v = nil
			vesselsDiscarded.Inc()
		}
		// Booked before the sink sees the record, so the span of the cluster
		// it drains travels ahead of the cluster's last experiment.
		if p.finish(w.c, t, err); err == nil {
			if err = pt.col.add(j.i, exp); err != nil {
				p.finish(w.c, phaseNS{}, err) // the sink failed: stop the run
			}
		}
		if err != nil {
			break
		}
	}
	if v != nil {
		v.Release()
	}
}

// collector gathers one point's finished experiments, preserving IDs, and
// feeds the point's sink. It tolerates partial completion (cancellation).
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
	// The trace goes to the sink below; don't hold event buffers for the
	// whole campaign in the collector's result slice.
	c.exps[i].Trace = nil
	return c.cfg.emit(exp)
}

// emit hands a finished experiment to the campaign's sink — from every path
// that finishes one: simulated, absent structure, analytic pre-pass.
// Callers serialize it.
func (c *CampaignConfig) emit(exp Experiment) error {
	if c.Sink == nil {
		return nil
	}
	if err := c.Sink(exp); err != nil {
		return fmt.Errorf("core: record experiment %d: %w", exp.ID, err)
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

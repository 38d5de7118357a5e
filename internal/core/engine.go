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
// each cluster's snapshot cycle the prefix pauses, captures the GPU, and
// the cluster's experiments fork from the capture — each one skipping
// straight to just before its injection instant. Because the simulator is
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
// enough to share one snapshot, taken one cycle before the earliest.
type cluster struct {
	snapCycle uint64
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
	for _, j := range order {
		c := cycleOf(j)
		w := cur.start(c)
		if len(out) == 0 || w != curWin || c-(out[len(out)-1].snapCycle+1) > maxSpan {
			out = append(out, cluster{snapCycle: c - 1})
			curWin = w
		}
		cl := &out[len(out)-1]
		cl.jobs = append(cl.jobs, j)
	}
	return out
}

// runPoints executes the points' pending experiments on the snapshot-and-
// fork path: one fault-free prefix run for the whole set that pauses at
// each cluster's snapshot cycle and fans the cluster's experiments out over
// the worker pool, each on a fork of the snapshot, each reporting to its
// own point's collector — so a point's hooks receive exactly the records
// they would receive from a run of that point alone. After the last cluster
// the prefix aborts (its suffix is never needed). The run's devices — the
// prefix device, the snapshot template it recycles and one vessel per
// worker — are borrowed from the device pool and go back to it when the run
// ends. The results are in point order; after a cancellation, or a prefix
// that ended early, they hold what finished.
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
	// One reusable fork per worker slot, shared across clusters: after its
	// first experiment a vessel restores snapshots into the memories and
	// cache arenas it already holds, moving only what the experiment wrote.
	vessels := make([]*sim.GPU, cfg.workerCount())
	g.SetContext(ctx)
	g.SetDeepClone(cfg.deepClone)
	g.EnableRecording()
	// The prefix is fault-free, but bound it anyway so a scheduling bug
	// cannot hang the campaign.
	g.CycleLimit = 4 * prof.TotalCycles
	// Parallel core stepping accelerates only the prefix: experiment
	// vessels fork serially (snapshots never carry pool state), because
	// campaign-level Workers parallelism already covers the fan-out.
	g.SetParallelCores(cfg.ParallelCores)

	// Tracing: each prefix segment up to a snapshot is an engine.snapshot
	// span, each cluster fan-out an engine.cluster span. The cluster span
	// announces itself (provisional zero-duration record) before any work
	// so per-experiment spans shipped in early batches can never reference
	// a parent that a crash kept from completing.
	traced := obs.TraceEnabled(ctx)
	var prefixMark time.Time

	next := 0
	g.SnapshotAt(snapCycles, func(s *sim.Snapshot) error {
		cl := clusters[next]
		next++
		cctx, csp := ctx, (*obs.Span)(nil)
		if traced {
			obs.EmitSpan(ctx, "engine.snapshot", prefixMark,
				obs.Attr{K: "cluster", V: strconv.Itoa(next - 1)},
				obs.Attr{K: "cycle", V: strconv.FormatUint(cl.snapCycle, 10)})
			cctx, csp = obs.StartSpan(ctx, "engine.cluster",
				obs.Attr{K: "cluster", V: strconv.Itoa(next - 1)},
				obs.Attr{K: "experiments", V: strconv.Itoa(len(cl.jobs))})
			csp.Announce()
		}
		poisoned, err := runCluster(cctx, prof, s, cl.jobs, points, vessels)
		csp.End()
		prefixMark = time.Now()
		// Every fork of this cluster has finished, also when the cluster was
		// cancelled or a hook failed; the next capture can reuse the
		// snapshot's storage instead of allocating afresh, and Release parks
		// it with the device — but only if no experiment poisoned it and the
		// storage still passes verification. A panicked fork may have been
		// killed mid-restore, and recycling suspect storage would silently
		// corrupt every later cluster of the campaign.
		if !poisoned {
			if verr := s.VerifyStorage(); verr == nil {
				g.RecycleSnapshot(s)
			}
		}
		if err != nil {
			return err
		}
		if next == len(clusters) {
			return sim.ErrReplayStop
		}
		return nil
	})

	prefixMark = time.Now()
	_, runErr := cfg.App.Run(g)
	// Reached by returning, never by a panic unwinding through here: storage
	// a panic left half-written must not reach the pool. A poisoned vessel's
	// slot is already nil, so it is not here to be released either.
	for _, v := range vessels {
		if v != nil {
			v.Release()
		}
	}
	g.Release()

	if runErr != nil && !errors.Is(runErr, sim.ErrReplayStop) {
		if isCancel(runErr) {
			// Cancelled mid-campaign: hand back what finished.
			return results(), runErr
		}
		return nil, fmt.Errorf("core: fault-free prefix run of %s failed: %w", cfg.App.Name, runErr)
	}
	if err := ctx.Err(); err != nil {
		return results(), err
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

// runCluster fans one cluster's experiments over a worker pool, each
// forking from the shared (read-only) snapshot and reporting to its point's
// collector. poisoned reports that at least one experiment panicked or hit
// its wall-clock deadline: its vessel is discarded here — dropped, never
// released to the device pool; the next experiment on that slot starts a
// new fork — and the caller must not recycle the cluster's snapshot storage.
func runCluster(ctx context.Context, prof *Profile, snap *sim.Snapshot,
	jobs []job, points []*point, vessels []*sim.GPU) (bool, error) {

	workers := min(len(vessels), len(jobs))
	var wg sync.WaitGroup
	var pos int64 = -1
	var poisonCount atomic.Int64
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(atomic.AddInt64(&pos, 1))
				if k >= len(jobs) || ctx.Err() != nil {
					return
				}
				pt, i := points[jobs[k].p], jobs[k].i
				forkStart := time.Now()
				g := vessels[w]
				if g == nil {
					g = sim.NewFork(snap)
					g.SetDeepClone(points[0].cfg.deepClone)
					vessels[w] = g
				} else {
					g.Refork(snap)
					forksReused.Add(1)
				}
				observePhase(&phaseForkNanos, forkStart)
				pt.cfg.emitExpSpan(ctx, "engine.fork", forkStart, i)
				exp, poisoned, err := runExperimentSandboxed(ctx, pt.cfg, prof, g, pt.plan.specs[i], pt.plan.extras[i], i)
				if poisoned {
					// The vessel ran a panicked or deadlined experiment:
					// its state is suspect, so drop it rather than
					// Refork-reuse it for the next experiment.
					vessels[w] = nil
					poisonCount.Add(1)
					vesselsDiscarded.Add(1)
				}
				if err == nil {
					err = pt.col.add(i, exp)
				}
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	poisoned := poisonCount.Load() > 0
	select {
	case err := <-errCh:
		if !isCancel(err) {
			return poisoned, err
		}
	default:
	}
	return poisoned, ctx.Err()
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

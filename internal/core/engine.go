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

// forksReused counts experiments that ran on a vessel already holding the
// previous experiment's state (Refork), the process-wide counterpart of the
// vessels built from nothing that internal/sim counts. Reuse dominating
// creation is what keeps per-experiment cost low; gpufi-serve exposes the
// ratio on /metrics. EngineStats (obsstats.go) folds both into the full
// phase-counter view.
var forksReused atomic.Int64

// cluster is a group of experiments whose injection cycles are close
// enough to share one snapshot, taken one cycle before the earliest.
type cluster struct {
	snapCycle uint64
	idxs      []int // experiment indices, ascending by injection cycle
}

// clusterSpanDivisor bounds how much post-snapshot prefix a fork may have
// to re-simulate: a cluster never spans more than total-window-cycles /
// clusterSpanDivisor, so per-experiment redundancy stays under ~1.6% of
// the execution while the prefix takes at most that many snapshots.
const clusterSpanDivisor = 64

// planClusters sorts the pending experiments by injection cycle and
// greedily packs them into clusters. Clusters never cross an invocation-
// window boundary: a snapshot is most useful inside the launch it will
// resume. Only pending indices are planned — on a resumed campaign the
// already-journaled experiments need no snapshot.
func planClusters(pending []int, specs []*sim.FaultSpec, windows []sim.CycleWindow) []cluster {
	order := append([]int(nil), pending...)
	sort.Slice(order, func(a, b int) bool {
		ca, cb := specs[order[a]].Cycle, specs[order[b]].Cycle
		if ca != cb {
			return ca < cb
		}
		return order[a] < order[b]
	})
	var total uint64
	for _, w := range windows {
		total += w.Width()
	}
	maxSpan := total / clusterSpanDivisor
	if maxSpan < 1 {
		maxSpan = 1
	}
	windowStart := func(cycle uint64) uint64 {
		for _, w := range windows {
			// Injection cycles are drawn from (Start, End]: the fault fires
			// entering the cycle, so Start+1 is the earliest instant.
			if cycle > w.Start && cycle <= w.End {
				return w.Start
			}
		}
		return 0
	}
	var out []cluster
	var curWin uint64
	for _, i := range order {
		c := specs[i].Cycle
		w := windowStart(c)
		if len(out) == 0 || w != curWin || c-(out[len(out)-1].snapCycle+1) > maxSpan {
			out = append(out, cluster{snapCycle: c - 1})
			curWin = w
		}
		cl := &out[len(out)-1]
		cl.idxs = append(cl.idxs, i)
	}
	return out
}

// runForked executes the campaign on the snapshot-and-fork path: one
// fault-free prefix run that pauses at each cluster's snapshot cycle and
// fans the cluster's experiments out over the worker pool, each on a fork
// of the snapshot. After the last cluster the prefix aborts (its suffix is
// never needed). The campaign's devices — the prefix device, the snapshot
// template it recycles and one vessel per worker — are borrowed from the
// device pool and go back to it when the campaign ends.
func runForked(ctx context.Context, cfg *CampaignConfig, prof *Profile,
	windows []sim.CycleWindow, pending []int, specs []*sim.FaultSpec, extras [][]*sim.FaultSpec) (*CampaignResult, error) {

	g, err := sim.Borrow(cfg.GPU)
	if err != nil {
		return nil, err
	}
	// One reusable fork per worker slot, shared across clusters: after its
	// first experiment a vessel restores snapshots into the memories and
	// cache arenas it already holds, moving only what the experiment wrote.
	vessels := make([]*sim.GPU, cfg.workerCount())
	res, err := runPrefix(ctx, cfg, prof, g, vessels, windows, pending, specs, extras)
	// Reached by returning, never by a panic unwinding through here: storage
	// a panic left half-written must not reach the pool. A poisoned vessel's
	// slot is already nil, so it is not here to be released either.
	for _, v := range vessels {
		if v != nil {
			v.Release()
		}
	}
	g.Release()
	return res, err
}

// runPrefix is the body of runForked on devices the caller owns: the prefix
// run on g, the cluster fan-out on vessels.
func runPrefix(ctx context.Context, cfg *CampaignConfig, prof *Profile, g *sim.GPU, vessels []*sim.GPU,
	windows []sim.CycleWindow, pending []int, specs []*sim.FaultSpec, extras [][]*sim.FaultSpec) (*CampaignResult, error) {

	clusters := planClusters(pending, specs, windows)
	snapCycles := make([]uint64, len(clusters))
	for i, c := range clusters {
		snapCycles[i] = c.snapCycle
	}

	col := newCollector(cfg, len(specs))
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
				obs.Attr{K: "experiments", V: strconv.Itoa(len(cl.idxs))})
			csp.Announce()
		}
		poisoned, err := runCluster(cctx, cfg, prof, s, cl.idxs, specs, extras, vessels, col)
		csp.End()
		prefixMark = time.Now()
		if err != nil {
			return err
		}
		// Every fork of this cluster has finished; the next capture can
		// reuse the snapshot's storage instead of allocating afresh — but
		// only if no experiment poisoned it and the storage still passes
		// verification. A panicked fork may have been killed mid-restore,
		// and recycling suspect storage would silently corrupt every later
		// cluster of the campaign.
		if !poisoned {
			if verr := s.VerifyStorage(); verr == nil {
				g.RecycleSnapshot(s)
			}
		}
		if next == len(clusters) {
			return sim.ErrReplayStop
		}
		return nil
	})

	prefixMark = time.Now()
	if _, runErr := cfg.App.Run(g); runErr != nil && !errors.Is(runErr, sim.ErrReplayStop) {
		if isCancel(runErr) {
			// Cancelled mid-campaign: hand back what finished.
			return col.result(prof), runErr
		}
		return nil, fmt.Errorf("core: fault-free prefix run of %s failed: %w", cfg.App.Name, runErr)
	}
	if err := ctx.Err(); err != nil {
		return col.result(prof), err
	}
	if next != len(clusters) {
		// The prefix run returned cleanly without visiting every snapshot
		// cycle — an app wrapper that swallows launch errors, or a cycle
		// plan past the execution's end. Without this check the campaign
		// would report partial results as a clean success.
		return col.result(prof), fmt.Errorf(
			"core: prefix run of %s finished after %d of %d snapshot clusters: %d experiment(s) never ran",
			cfg.App.Name, next, len(clusters), len(pending)-col.completedCount())
	}
	return col.result(prof), nil
}

// runCluster fans one cluster's experiments over a worker pool, each
// forking from the shared (read-only) snapshot. poisoned reports that at
// least one experiment panicked or hit its wall-clock deadline: its vessel
// is discarded here — dropped, never released to the device pool; the next
// experiment on that slot starts a new fork — and the caller must not
// recycle the cluster's snapshot storage.
func runCluster(ctx context.Context, cfg *CampaignConfig, prof *Profile, snap *sim.Snapshot,
	idxs []int, specs []*sim.FaultSpec, extras [][]*sim.FaultSpec, vessels []*sim.GPU, col *collector) (bool, error) {

	workers := cfg.workerCount()
	if workers > len(idxs) {
		workers = len(idxs)
	}
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
				if k >= len(idxs) || ctx.Err() != nil {
					return
				}
				i := idxs[k]
				forkStart := time.Now()
				g := vessels[w]
				if g == nil {
					g = sim.NewFork(snap)
					g.SetDeepClone(cfg.deepClone)
					vessels[w] = g
				} else {
					g.Refork(snap)
					forksReused.Add(1)
				}
				observePhase(&phaseForkNanos, forkStart)
				obs.EmitSpan(ctx, "engine.fork", forkStart,
					obs.Attr{K: "exp", V: strconv.Itoa(i)})
				exp, poisoned, err := runExperimentSandboxed(ctx, cfg, prof, g, specs[i], extras[i], i)
				if poisoned {
					// The vessel ran a panicked or deadlined experiment:
					// its state is suspect, so drop it rather than
					// Refork-reuse it for the next experiment.
					vessels[w] = nil
					poisonCount.Add(1)
					vesselsDiscarded.Add(1)
				}
				if err == nil {
					err = col.add(i, exp)
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

// collector gathers finished experiments, preserving IDs, and feeds the
// progress callback. It tolerates partial completion (cancellation).
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
	if exp.Quarantined && c.cfg.Quarantine != nil {
		// Write-ahead: the quarantine record must be durable before the
		// (batched) outcome record, so a process crash right after a
		// poison run still leaves the spec marked skip-on-resume.
		if err := c.cfg.Quarantine(exp); err != nil {
			return fmt.Errorf("core: quarantine experiment %d: %w", i, err)
		}
	}
	if c.cfg.Journal != nil {
		if err := c.cfg.Journal(exp); err != nil {
			return fmt.Errorf("core: journal experiment %d: %w", i, err)
		}
	}
	if c.cfg.TraceSink != nil && exp.Trace != nil {
		if err := c.cfg.TraceSink(*exp.Trace); err != nil {
			return fmt.Errorf("core: trace experiment %d: %w", i, err)
		}
	}
	// The trace has been delivered; don't hold event buffers for the whole
	// campaign in the collector's result slice.
	c.exps[i].Trace = nil
	if c.cfg.Progress != nil {
		c.cfg.Progress(exp)
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

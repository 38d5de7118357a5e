package gpufi

import (
	"context"
	"time"

	"gpufi/internal/core"
)

// Campaign is a configured injection campaign point: an application, a GPU
// model, a target kernel and hardware structure, and the experiment batch
// parameters. Build one with NewCampaign and functional options, then
// execute it with Run — campaigns run on the snapshot-and-fork engine,
// which simulates the fault-free prefix once per cycle-cluster and forks
// every experiment from a copy-on-write GPU snapshot instead of replaying
// from cycle 0.
//
//	app, _ := gpufi.AppByName("VA")
//	gpu := gpufi.RTX2060()
//	c := gpufi.NewCampaign(
//	    gpufi.WithTarget(app, gpu, "va_add", gpufi.StructRegFile),
//	    gpufi.WithRuns(3000),
//	    gpufi.WithSeed(42),
//	    gpufi.WithProgress(func(e gpufi.Experiment) { fmt.Print(".") }),
//	)
//	res, err := c.Run(ctx)
//
// A Campaign is single-goroutine on the outside (Run may be called again
// after it returns); the experiments inside run in parallel.
type Campaign struct {
	cfg  CampaignConfig
	prof *AppProfile
}

// CampaignOption configures a Campaign under construction.
type CampaignOption func(*Campaign)

// NewCampaign builds a campaign from functional options. Everything has a
// sensible zero default except the target (application, GPU, kernel,
// structure) and the run count; Validate or Run reports what is missing.
func NewCampaign(opts ...CampaignOption) *Campaign {
	c := &Campaign{cfg: CampaignConfig{Bits: 1}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// WithTarget sets the campaign point: which application on which GPU
// model, which static kernel, and which hardware structure to inject into.
func WithTarget(app *App, gpu *GPU, kernel string, st Structure) CampaignOption {
	return func(c *Campaign) {
		c.cfg.App, c.cfg.GPU, c.cfg.Kernel, c.cfg.Structure = app, gpu, kernel, st
	}
}

// WithRuns sets the number of injection experiments.
func WithRuns(n int) CampaignOption { return func(c *Campaign) { c.cfg.Runs = n } }

// WithWorkers sets the number of parallel experiment workers
// (0 = GOMAXPROCS). The outcome is identical for any worker count.
func WithWorkers(n int) CampaignOption { return func(c *Campaign) { c.cfg.Workers = n } }

// WithSeed sets the campaign seed. Same seed, same outcomes — bit for bit.
func WithSeed(seed int64) CampaignOption { return func(c *Campaign) { c.cfg.Seed = seed } }

// WithBits sets the fault multiplicity (1 = single-bit, 3 = triple, ...).
func WithBits(bits int) CampaignOption { return func(c *Campaign) { c.cfg.Bits = bits } }

// WithProgress registers a callback invoked once per finished experiment
// (serialized, in completion order) — for progress bars and incremental
// log flushing.
func WithProgress(fn func(Experiment)) CampaignOption {
	return func(c *Campaign) { c.cfg.Progress = fn }
}

// WithJournal registers a durability hook invoked once per finished
// experiment, serialized, before the WithProgress callback. Unlike
// Progress, the hook returns an error: a failed write (disk full, closed
// journal) aborts the campaign instead of silently losing outcomes. Pair
// it with a LogWriter for an incremental JSONL log that survives crashes:
//
//	lw := gpufi.NewLogWriter(f)
//	lw.Begin(hdr)
//	c := gpufi.NewCampaign(..., gpufi.WithJournal(lw.Experiment))
func WithJournal(fn func(Experiment) error) CampaignOption {
	return func(c *Campaign) { c.cfg.Journal = fn }
}

// WithCompleted marks experiment indices as already finished — the
// campaign derives every fault specification as usual (so the seed→fault
// mapping is undisturbed) but only simulates the remaining indices.
// This is the resume primitive: feed it the IDs recovered from a partial
// journal and the merged outcomes are bit-identical to an uninterrupted
// run. Out-of-range indices are ignored.
func WithCompleted(idxs ...int) CampaignOption {
	return func(c *Campaign) { c.cfg.Completed = append(c.cfg.Completed, idxs...) }
}

// WithInvocation targets a single dynamic instance of the static kernel
// (1-based; 0 = all invocations together, the paper's default).
func WithInvocation(n int) CampaignOption { return func(c *Campaign) { c.cfg.Invocation = n } }

// WithWarpWide makes register-file and local-memory injections hit the
// same register of every thread in a warp.
func WithWarpWide(v bool) CampaignOption { return func(c *Campaign) { c.cfg.WarpWide = v } }

// WithBlocks sets how many CTAs a shared-memory injection hits.
func WithBlocks(n int) CampaignOption { return func(c *Campaign) { c.cfg.Blocks = n } }

// WithSimultaneous adds structures injected in the same run at the same
// cycle as the primary target (the paper's combination campaigns).
func WithSimultaneous(sts ...Structure) CampaignOption {
	return func(c *Campaign) { c.cfg.Simultaneous = append(c.cfg.Simultaneous, sts...) }
}

// WithExpTimeout bounds each experiment's wall-clock runtime (0 = none).
// The cycle-limit catches faulty runs whose cycle counter keeps ticking;
// this deadline catches the complementary failure where the simulator
// itself stops advancing. An expired experiment is classified as a
// quarantined Timeout and the campaign continues — it never aborts the
// batch.
func WithExpTimeout(d time.Duration) CampaignOption {
	return func(c *Campaign) { c.cfg.ExpTimeout = d }
}

// WithTrace enables fault-propagation tracing and delivers each finished
// experiment's trace to sink (serialized, after the WithJournal hook and
// before the WithProgress callback). Tracing is purely observational —
// outcomes stay bit-identical with it on or off — but it annotates every
// experiment with a Why classification ("masked:never-read",
// "sdc:read", ...) and records the injection site, the first architectural
// read of the corrupted cell, and the taint hops in between. A sink error
// aborts the campaign, like a failed journal write.
func WithTrace(sink func(ExperimentTrace) error) CampaignOption {
	return func(c *Campaign) {
		c.cfg.Trace = true
		c.cfg.TraceSink = sink
	}
}

// WithPlan enables adaptive early stopping: the campaign treats its run
// count as a ceiling and stops once the rule's confidence interval is
// satisfied (CampaignResult.Plan reports the saving). A nil rule or zero
// TargetCI keeps the fixed-N behavior.
func WithPlan(r *PlanRule) CampaignOption { return func(c *Campaign) { c.cfg.Plan = r } }

// WithProfile supplies a precomputed fault-free profile, so several
// campaign points against the same app/GPU share one golden run.
func WithProfile(prof *AppProfile) CampaignOption { return func(c *Campaign) { c.prof = prof } }

// Config returns a copy of the underlying campaign configuration.
func (c *Campaign) Config() CampaignConfig { return c.cfg }

// Validate checks the campaign configuration without running anything.
func (c *Campaign) Validate() error { return c.cfg.Validate() }

// Run executes the campaign. The context cancels it: on cancellation Run
// returns promptly with ctx's error and a partial CampaignResult holding
// every experiment that finished, so callers can still flush logs.
// If no profile was supplied with WithProfile, Run performs the fault-free
// golden run first.
func (c *Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := c.cfg.Validate(); err != nil {
		return nil, err
	}
	prof := c.prof
	if prof == nil {
		p, err := core.ProfileApp(ctx, c.cfg.App, c.cfg.GPU)
		if err != nil {
			return nil, err
		}
		c.prof = p
		prof = p
	}
	return core.RunCampaign(ctx, &c.cfg, prof)
}

// Profile returns the campaign's fault-free profile, computing it on first
// use.
func (c *Campaign) Profile(ctx context.Context) (*AppProfile, error) {
	if c.prof == nil {
		p, err := core.ProfileApp(ctx, c.cfg.App, c.cfg.GPU)
		if err != nil {
			return nil, err
		}
		c.prof = p
	}
	return c.prof, nil
}

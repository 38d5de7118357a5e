package gpufi

import (
	"context"

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

	progress func(Experiment)            // WithProgress
	trace    func(ExperimentTrace) error // WithTrace
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
	if c.progress != nil || c.trace != nil {
		c.cfg.Sink = func(e Experiment) error {
			if c.trace != nil && e.Trace != nil {
				if err := c.trace(*e.Trace); err != nil {
					return err
				}
			}
			if c.progress != nil {
				c.progress(e)
			}
			return nil
		}
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

// WithProgress registers a callback invoked once per finished experiment
// (serialized, in completion order) — for progress bars and incremental
// log flushing.
func WithProgress(fn func(Experiment)) CampaignOption {
	return func(c *Campaign) { c.progress = fn }
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

// WithSimultaneous adds structures injected in the same run at the same
// cycle as the primary target (the paper's combination campaigns).
func WithSimultaneous(sts ...Structure) CampaignOption {
	return func(c *Campaign) { c.cfg.Simultaneous = append(c.cfg.Simultaneous, sts...) }
}

// WithTrace enables fault-propagation tracing and delivers each finished
// experiment's trace to sink (serialized, before the WithProgress
// callback). Tracing is purely observational — outcomes stay
// bit-identical with it on or off — but it annotates every
// experiment with a Why classification ("masked:never-read",
// "sdc:read", ...) and records the injection site, the first architectural
// read of the corrupted cell, and the taint hops in between. A sink error
// aborts the campaign, like a failed journal write.
func WithTrace(sink func(ExperimentTrace) error) CampaignOption {
	return func(c *Campaign) {
		c.cfg.Trace = true
		c.trace = sink
	}
}

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

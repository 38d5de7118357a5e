package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/bench"
	"gpufi/internal/cache"
	"gpufi/internal/config"
	"gpufi/internal/obs"
	"gpufi/internal/plan"
	"gpufi/internal/sim"
)

// Profile is the fault-free characterization of an application on a GPU:
// the golden output (the paper's predefined result file), total cycles,
// and per-static-kernel statistics (invocation windows, cores used, mean
// occupancy — the inputs to cycle sampling and the derating factors).
type Profile struct {
	App         string
	GPU         string
	Golden      []byte
	TotalCycles uint64
	Kernels     map[string]*sim.KernelStats
	KernelOrder []string
}

// ProfileApp runs the application once without faults and collects the
// profile. It also verifies the run against the CPU reference, the
// equivalent of the paper's golden-reference preparation step. The context
// cancels the run.
func ProfileApp(ctx context.Context, app *bench.App, gpu *config.GPU) (*Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g, err := sim.Borrow(gpu)
	if err != nil {
		return nil, err
	}
	g.SetContext(ctx)
	out, err := app.Run(g)
	// Only the storage goes back to the pool: the statistics the profile
	// keeps below belong to g itself.
	g.Release()
	if err != nil {
		if isCancel(err) {
			return nil, err
		}
		return nil, fmt.Errorf("core: fault-free run of %s failed: %v", app.Name, err)
	}
	if !app.RefOK(out) {
		return nil, fmt.Errorf("core: fault-free run of %s does not match its CPU reference", app.Name)
	}
	return &Profile{
		App:         app.Name,
		GPU:         gpu.Name,
		Golden:      out,
		TotalCycles: g.Cycle(),
		Kernels:     g.KernelStats(),
		KernelOrder: g.KernelNames(),
	}, nil
}

// CampaignConfig describes one injection campaign point: a workload, a
// target static kernel, a target structure, and the fault multiplicity.
type CampaignConfig struct {
	App       *bench.App
	GPU       *config.GPU
	Kernel    string        // static kernel name to inject into
	Structure sim.Structure // target hardware structure
	Runs      int           // number of injection experiments
	Bits      int           // fault multiplicity (1 = single, 3 = triple, ...)
	WarpWide  bool          // RF/local: warp-granularity injection
	Blocks    int           // shared: number of CTAs hit
	Seed      int64         // campaign seed
	Workers   int           // parallel simulations (0 = GOMAXPROCS)

	// Invocation targets a single dynamic instance of the static kernel
	// (1-based). 0 considers all invocations together, the paper's
	// default ("we consider all its invocations together").
	Invocation int

	// Simultaneous lists additional structures injected in the same run
	// at the same cycle as Structure — the paper's Table IV combination
	// campaigns ("different hardware structures simultaneously").
	Simultaneous []sim.Structure

	// deepClone makes every restore and capture copy the complete state
	// instead of only the pages, cache lines and resident slabs that
	// diverged. It is the differential baseline the copy-on-write protocol
	// is checked against; unexported so only this package's tests can set
	// it.
	deepClone bool

	// runToEnd makes every experiment simulate to the application's last
	// cycle and compare its output, where the engine otherwise ends a run the
	// moment the rest of it is provably the golden run (sim.StopWhenGolden).
	// It is the oracle early stopping is checked against, byte for byte;
	// unexported so only this package's tests can set it.
	runToEnd bool

	// spanPoint, when set, goes on every per-experiment span as its "point"
	// attribute. EvaluateApp names each point of its run with it, so the
	// spans of a run that carries several points stay attributable; a
	// one-point campaign leaves it empty and its spans are unchanged.
	spanPoint string

	// Progress, when non-nil, is called once per finished experiment (in
	// completion order, serialized). Long campaigns use it for progress
	// reporting and incremental logging.
	Progress func(Experiment)

	// Journal, when non-nil, is called once per finished experiment,
	// before Progress, serialized in completion order. Unlike Progress it
	// may fail: a non-nil error aborts the campaign, so a durable store
	// never silently loses records it believes it has written.
	Journal func(Experiment) error

	// Completed lists experiment indices already finished by an earlier
	// run of the same campaign (same seed), e.g. recovered from a journal.
	// The engine still derives every experiment's fault spec — keeping the
	// seed-to-fault mapping identical to an uninterrupted campaign — but
	// skips executing these indices. The CampaignResult then covers only
	// the newly run experiments; callers merge it with the journaled ones.
	// Out-of-range indices are ignored.
	Completed []int

	// ExpTimeout bounds each experiment's wall-clock runtime (0 = no
	// bound). The cycle-limit (2x the fault-free cycles) catches faulty
	// runs that keep ticking; this deadline catches the complementary
	// failure where the simulator itself stops advancing — an infinite
	// loop injected into simulator state rather than simulated state.
	// Expiry classifies the experiment as a quarantined avf.Timeout
	// instead of aborting the campaign.
	ExpTimeout time.Duration

	// Quarantine, when non-nil, is called for each experiment the sandbox
	// poisoned (panicked or wall-clock-deadlined), serialized, before the
	// Journal hook. A durable store uses it to write a synced quarantine
	// record ahead of the batched outcome record, so a crash-looping spec
	// is skipped on resume even if the process dies before the outcome
	// reaches disk. A non-nil error aborts the campaign.
	Quarantine func(exp Experiment) error

	// ExperimentHook, when non-nil, runs at the start of every experiment
	// inside the sandbox boundary, before the simulator does any work.
	// It exists for tests that model simulator bugs (a hook that panics
	// or blocks exercises the sandbox); production configs leave it nil.
	// It takes precedence over the process-wide SetExperimentHook.
	ExperimentHook func(id int, spec *sim.FaultSpec)

	// Trace enables fault-propagation tracing: every experiment runs with
	// the simulator's taint tracer attached, Experiment.Why carries the
	// propagation sub-classification, and each experiment yields an
	// ExperimentTrace delivered to TraceSink. Tracing is observational
	// only — outcome counts are bit-identical with it on or off.
	Trace bool

	// TraceSink, when non-nil (with Trace set), receives one propagation
	// trace per finished experiment, serialized in completion order after
	// Journal and before Progress. A non-nil error aborts the campaign.
	TraceSink func(ExperimentTrace) error

	// Plan, when enabled (TargetCI > 0), switches the campaign to the
	// adaptive planner: an analytic never-read pre-pass folds provably
	// masked sites in without simulation, the remainder runs in stratified
	// rounds, and the campaign stops as soon as the running confidence
	// interval is tighter than the target. Runs stays the hard ceiling;
	// the seed-to-fault mapping is unchanged, the planner just stops
	// running indices early. Nil or zero-valued leaves campaign behavior
	// (and journal bytes) identical to pre-planner builds.
	Plan *plan.Rule

	// PlanPrior seeds the adaptive tracker with the outcome tally already
	// journaled by an earlier run of this campaign (the counts behind
	// Completed), so a resumed adaptive campaign decides to stop based on
	// everything observed, not just this process's experiments. Ignored
	// when Plan is disabled.
	PlanPrior avf.Counts
}

// workerCount resolves the configured worker count.
func (c *CampaignConfig) workerCount() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// Validate checks the campaign point for configuration errors that would
// otherwise surface mid-campaign: unknown kernel, a structure the GPU
// model does not have, non-positive run count or fault multiplicity.
// Every entry point calls it before doing any work.
func (c *CampaignConfig) Validate() error {
	if c.App == nil {
		return fmt.Errorf("core: campaign has no application")
	}
	if c.GPU == nil {
		return fmt.Errorf("core: campaign has no GPU model")
	}
	if c.Runs <= 0 {
		return fmt.Errorf("core: campaign Runs must be positive, got %d", c.Runs)
	}
	if c.Bits <= 0 {
		return fmt.Errorf("core: campaign Bits (fault multiplicity) must be positive, got %d", c.Bits)
	}
	if c.Invocation < 0 {
		return fmt.Errorf("core: campaign Invocation must not be negative, got %d", c.Invocation)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: campaign Workers must not be negative, got %d", c.Workers)
	}
	if c.ExpTimeout < 0 {
		return fmt.Errorf("core: campaign ExpTimeout must not be negative, got %v", c.ExpTimeout)
	}
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	known := false
	for _, k := range c.App.Kernels {
		if k == c.Kernel {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("core: application %s has no kernel %q (have %v)",
			c.App.Name, c.Kernel, c.App.Kernels)
	}
	structs := append([]sim.Structure{c.Structure}, c.Simultaneous...)
	for _, st := range structs {
		switch st {
		case sim.StructL1D:
			if c.GPU.L1D == nil {
				return fmt.Errorf("core: GPU model %s has no L1 data cache to inject into", c.GPU.Name)
			}
		case sim.StructL1C:
			if c.GPU.L1C == nil {
				return fmt.Errorf("core: GPU model %s has no L1 constant cache to inject into", c.GPU.Name)
			}
		case sim.StructL1I:
			if c.GPU.L1I == nil {
				return fmt.Errorf("core: GPU model %s has no L1 instruction cache to inject into", c.GPU.Name)
			}
		case sim.StructRegFile, sim.StructShared, sim.StructLocal, sim.StructL1T, sim.StructL2:
		default:
			return fmt.Errorf("core: unknown injection structure %d", st)
		}
	}
	return nil
}

// Experiment is one logged injection result.
type Experiment struct {
	ID       int         `json:"id"`
	Cycle    uint64      `json:"cycle"`
	Bits     []int64     `json:"bits"`
	Outcome  avf.Outcome `json:"-"`
	Effect   string      `json:"effect"` // Outcome name, stable in logs
	Cycles   uint64      `json:"cycles"` // total cycles of the faulty run
	Injected bool        `json:"injected"`
	Detail   string      `json:"detail,omitempty"`

	// Quarantined marks an experiment whose outcome came from the sandbox
	// boundary rather than a completed simulation: the run panicked the
	// simulator (Crash) or exceeded the wall-clock deadline (Timeout).
	// Quarantined specs are journaled ahead of their outcome and skipped
	// on resume, so a poison spec cannot wedge a campaign.
	Quarantined bool `json:"quarantined,omitempty"`

	// Why is the propagation sub-classification derived from the fault
	// trace (e.g. "masked:never-read", "sdc:read", "due:crash"). Empty
	// unless the campaign ran with Trace enabled, so untraced journal
	// bytes are unchanged from earlier builds.
	Why string `json:"why,omitempty"`

	// Trace carries the propagation trace from the engine to the
	// collector, which hands it to CampaignConfig.TraceSink and drops it.
	// Never part of the journal record.
	Trace *ExperimentTrace `json:"-"`
}

// CampaignResult aggregates a finished campaign point.
type CampaignResult struct {
	App       string       `json:"app"`
	GPU       string       `json:"gpu"`
	Kernel    string       `json:"kernel"`
	Structure string       `json:"structure"`
	Bits      int          `json:"bits"`
	Runs      int          `json:"runs"`
	Seed      int64        `json:"seed"`
	Counts    avf.Counts   `json:"counts"`
	Exps      []Experiment `json:"-"`

	// Plan reports the adaptive planner's view of the finished point —
	// interval, analytic-masked tally, experiments saved. Nil for fixed-N
	// campaigns.
	Plan *PlanReport `json:"plan,omitempty"`
}

// RunCampaign executes the campaign point: Runs experiments, each with one
// fault drawn by the mask generator, classified against the profile's
// golden output. Experiments run in parallel on the snapshot-and-fork
// engine; results are deterministic given the seed, independent of the
// worker count.
//
// On context cancellation RunCampaign returns promptly with ctx's error
// and a partial CampaignResult holding every experiment that finished.
func RunCampaign(ctx context.Context, cfg *CampaignConfig, prof *Profile) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cp, err := planCampaign(cfg, prof)
	if err != nil {
		return nil, err
	}
	if cfg.Plan.Enabled() && !cp.absent && len(cp.pending) > 0 {
		return runAdaptive(ctx, cfg, prof, cp)
	}
	return runPoint(ctx, cfg, prof, cp, cp.pending)
}

// runPoint is the one-point engine run: RunCampaign's, and each round of
// the adaptive driver's.
func runPoint(ctx context.Context, cfg *CampaignConfig, prof *Profile, cp *campaignPlan, pending []int) (*CampaignResult, error) {
	res, err := runPoints(ctx, prof, []*point{{cfg: cfg, plan: cp, pending: pending}})
	if res == nil {
		return nil, err
	}
	return res[0], err
}

// emitExpSpan records one engine phase of one experiment as a span named
// by the experiment index, and by its point when the run carries several.
func (c *CampaignConfig) emitExpSpan(ctx context.Context, name string, start time.Time, i int, more ...obs.Attr) {
	if !obs.TraceEnabled(ctx) {
		return
	}
	attrs := append([]obs.Attr{{K: "exp", V: strconv.Itoa(i)}}, more...)
	if c.spanPoint != "" {
		attrs = append(attrs, obs.Attr{K: "point", V: c.spanPoint})
	}
	obs.EmitSpan(ctx, name, start, attrs...)
}

// runExperiment arms the faults on a prepared GPU (fresh or forked), runs
// the application and classifies the outcome.
func runExperiment(ctx context.Context, cfg *CampaignConfig, prof *Profile,
	g *sim.GPU, spec *sim.FaultSpec, extras []*sim.FaultSpec, i int) (Experiment, error) {

	g.CycleLimit = 2 * prof.TotalCycles // the paper's timeout threshold
	g.SetContext(ctx)
	g.StopWhenGolden(!cfg.runToEnd)
	if cfg.Trace {
		g.EnableTrace()
	}
	if err := g.ArmFault(spec); err != nil {
		return Experiment{}, err
	}
	for _, es := range extras {
		if err := g.ArmFault(es); err != nil {
			return Experiment{}, err
		}
	}
	execStart := time.Now()
	out, runErr := cfg.App.Run(g)
	observePhase(&phaseExecuteNanos, execStart)
	cfg.emitExpSpan(ctx, "engine.execute", execStart, i)
	cycles := g.Cycle()
	if why := g.Stopped(); why != sim.NotStopped {
		// The device proved the rest of the run to be the golden run and did
		// not simulate it (whatever the application made of the launch that
		// stopped): the record is the one the golden suffix ends in.
		observeEarlyStop(why, prof.TotalCycles-cycles)
		out, runErr, cycles = prof.Golden, nil, prof.TotalCycles
	}
	if runErr != nil && isCancel(runErr) {
		// A cancelled run is an aborted campaign, not a Crash outcome.
		return Experiment{}, runErr
	}

	clsStart := time.Now()
	exp := Experiment{
		ID:    i,
		Cycle: spec.Cycle,
		Bits:  spec.BitPositions,
	}
	if rec := g.Injection(); rec != nil {
		exp.Injected = rec.Applied
		exp.Detail = rec.Detail
	}
	exp.Cycles = cycles
	exp.Outcome = classify(runErr, out, prof, cycles)
	exp.Effect = exp.Outcome.String()
	if cfg.Trace {
		finishTrace(g, &exp)
	}
	observePhase(&phaseClassifyNanos, clsStart)
	cfg.emitExpSpan(ctx, "engine.classify", clsStart, i, obs.Attr{K: "outcome", V: exp.Effect})
	return exp, nil
}

// classify maps one run's result to a fault effect (Section V.B).
func classify(runErr error, out []byte, prof *Profile, cycles uint64) avf.Outcome {
	switch runErr.(type) {
	case nil:
	case *sim.ErrTimeout:
		return avf.Timeout
	case *sim.MemViolation:
		return avf.Crash
	case *cache.Error:
		// A fault-corrupted store routed into a read-only cache mode: the
		// simulated machine did something impossible, i.e. a Crash.
		return avf.Crash
	default:
		// Any other abnormal termination of the application counts as a
		// crash (e.g. a corrupted host-visible value driving an invalid
		// launch configuration).
		return avf.Crash
	}
	if !bytes.Equal(out, prof.Golden) {
		return avf.SDC
	}
	if cycles != prof.TotalCycles {
		return avf.Performance
	}
	return avf.Masked
}

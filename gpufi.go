// Package gpufi is a Go reproduction of gpuFI-4, the microarchitecture-
// level fault-injection framework for assessing the cross-layer resilience
// of Nvidia GPUs (Sartzetakis, Papadimitriou, Gizopoulos — ISPASS 2022),
// together with the full substrate it needs: a cycle-level SIMT GPU
// simulator in the spirit of GPGPU-Sim 4.0, a SASS-like ISA and assembler,
// and the paper's twelve benchmark applications.
//
// The typical flow mirrors the paper's methodology: build a Campaign for
// one injection point and Run it. Campaigns execute on the snapshot-and-
// fork engine — the fault-free prefix is simulated once per cluster of
// nearby injection cycles, and every experiment forks from a copy-on-write
// GPU snapshot instead of replaying from cycle 0.
//
//	app, _ := gpufi.AppByName("VA")           // one of the 12 benchmarks
//	gpu := gpufi.RTX2060()                    // Table V configuration
//	c := gpufi.NewCampaign(
//	    gpufi.WithTarget(app, gpu, "va_add", gpufi.StructRegFile),
//	    gpufi.WithRuns(3000),
//	    gpufi.WithSeed(42),
//	)
//	res, _ := c.Run(ctx)                      // ctx cancels mid-campaign
//	fmt.Println(res.Counts.FailureRatio())    // Eq. (1)
//
// Full-application AVF/FIT evaluations (Eqs. 2-3, Section VI.F) run with
// Evaluate, and every table and figure of the paper regenerates through
// the benchmarks in bench_test.go or the gpufi-figures command.
package gpufi

import (
	"context"
	"io"

	"gpufi/internal/asm"
	"gpufi/internal/avf"
	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/core"
	"gpufi/internal/isa"
	"gpufi/internal/plan"
	"gpufi/internal/sim"
	"gpufi/internal/store"
)

// Re-exported types. The aliases form the public API surface; internal
// packages stay internal.
type (
	// GPU is a GPU model configuration (Table V parameters).
	GPU = config.GPU
	// CacheGeom describes one cache's geometry.
	CacheGeom = config.Cache
	// Device is a simulated GPU instance with device memory.
	Device = sim.GPU
	// Program is an assembled kernel.
	Program = isa.Program
	// Dim is a kernel launch dimension.
	Dim = sim.Dim
	// App is one of the twelve benchmark applications.
	App = bench.App
	// Structure identifies an injectable hardware structure.
	Structure = sim.Structure
	// FaultSpec describes one injection experiment.
	FaultSpec = sim.FaultSpec
	// Outcome classifies a fault effect (Masked, SDC, Crash, ...).
	Outcome = avf.Outcome
	// Counts tallies campaign outcomes.
	Counts = avf.Counts
	// StructResult is a structure's campaign outcome with size/derating.
	StructResult = avf.StructResult
	// KernelEntry weights a kernel AVF by cycles for Eq. (3).
	KernelEntry = avf.KernelEntry
	// Profile is the fault-free characterization of an app on a GPU.
	AppProfile = core.Profile
	// CampaignConfig describes one injection campaign point.
	CampaignConfig = core.CampaignConfig
	// CampaignResult aggregates a finished campaign.
	CampaignResult = core.CampaignResult
	// Experiment is one logged injection outcome.
	Experiment = core.Experiment
	// ExperimentTrace is one experiment's fault-propagation trace.
	ExperimentTrace = core.ExperimentTrace
	// TraceEvent is one propagation event within an ExperimentTrace.
	TraceEvent = sim.TraceEvent
	// EvalConfig tunes a full application evaluation.
	EvalConfig = core.EvalConfig
	// AppEval is a full application AVF/FIT evaluation.
	AppEval = core.AppEval
	// KernelEval is a per-kernel AVF evaluation.
	KernelEval = core.KernelEval
	// EngineCounters are the process-wide fork-engine, phase and
	// copy-on-write counters (see EngineStats).
	EngineCounters = core.EngineCounters
	// PlanRule configures adaptive early stopping for a campaign point
	// (see WithPlan and CampaignConfig.Plan).
	PlanRule = plan.Rule
	// PlanStatus is a snapshot of an adaptive campaign's interval estimate.
	PlanStatus = plan.Status
	// PlanReport is the adaptive planner's summary on a finished campaign
	// (CampaignResult.Plan).
	PlanReport = core.PlanReport
)

// Injectable structures (paper Table IV, plus the L1C/L1I extensions).
const (
	StructRegFile = sim.StructRegFile
	StructShared  = sim.StructShared
	StructLocal   = sim.StructLocal
	StructL1D     = sim.StructL1D
	StructL1T     = sim.StructL1T
	StructL2      = sim.StructL2
	StructL1C     = sim.StructL1C
	StructL1I     = sim.StructL1I
)

// Fault-effect classes (paper Section V.B).
const (
	Masked      = avf.Masked
	SDC         = avf.SDC
	Crash       = avf.Crash
	Timeout     = avf.Timeout
	Performance = avf.Performance
)

// GPU model presets (the paper's three cards).

// RTX2060 returns the Turing-generation RTX 2060 model.
func RTX2060() *GPU { return config.RTX2060() }

// QuadroGV100 returns the Volta-generation Quadro GV100 model.
func QuadroGV100() *GPU { return config.QuadroGV100() }

// GTXTitan returns the Kepler-generation GTX Titan model.
func GTXTitan() *GPU { return config.GTXTitan() }

// Cards returns the three paper GPUs in the paper's order.
func Cards() []*GPU { return config.Presets() }

// CardByName returns a preset by name.
func CardByName(name string) (*GPU, error) { return config.ByName(name) }

// ParseGPU reads a gpgpusim.config-style GPU configuration.
func ParseGPU(r io.Reader) (*GPU, error) { return config.Parse(r) }

// Benchmark applications.

// Apps returns fresh instances of the twelve paper benchmarks.
func Apps() []*App { return bench.All() }

// AppsScale returns the twelve benchmarks with every problem size
// multiplied by scale (closer to the paper's full-size inputs; higher
// occupancy, cache residency and simulation cost).
func AppsScale(scale int) []*App { return bench.AllScale(scale) }

// AppNames returns the benchmark names in the paper's order.
func AppNames() []string { return bench.Names() }

// AppByName builds a benchmark by its paper abbreviation.
func AppByName(name string) (*App, error) { return bench.ByName(name) }

// AppByNameScale builds a benchmark at the given problem-size scale.
func AppByNameScale(name string, scale int) (*App, error) { return bench.ByNameScale(name, scale) }

// Simulation and injection.

// NewDevice creates a simulated GPU.
func NewDevice(cfg *GPU) (*Device, error) { return sim.New(cfg) }

// Assemble translates kernel assembly source with a single kernel.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// AssembleAll translates source holding several kernels.
func AssembleAll(src string) (map[string]*Program, error) { return asm.AssembleAll(src) }

// Dim1 and Dim2 build launch dimensions.
func Dim1(x int) Dim    { return sim.Dim1(x) }
func Dim2(x, y int) Dim { return sim.Dim2(x, y) }

// Structures lists the injectable structures.
func Structures() []Structure { return sim.Structures() }

// ParseStructure converts a short name ("regfile", "l2", ...).
func ParseStructure(name string) (Structure, error) { return sim.ParseStructure(name) }

// Campaign methodology (the gpuFI-4 modules).

// Profile runs an application fault-free and returns its golden output
// and per-kernel statistics. The context cancels the run.
func Profile(ctx context.Context, app *App, gpu *GPU) (*AppProfile, error) {
	return core.ProfileApp(ctx, app, gpu)
}

// Evaluate runs the full campaign matrix for an app on a GPU and
// assembles the AVF (Eqs. 1-3) and FIT metrics. The context cancels the
// evaluation.
func Evaluate(ctx context.Context, app *App, gpu *GPU, cfg EvalConfig) (*AppEval, error) {
	return core.EvaluateApp(ctx, app, gpu, cfg)
}

// EngineStats returns the process-wide fork-engine counters: vessel
// churn, snapshot capture/restore totals and timings, per-phase
// wall-clock, and the copy-on-write sync counters (pages copied versus
// shared, bytes a deep clone would have moved, dirty ratio, warp/smem
// materializations). Counters are cumulative across every campaign run
// in the process; subtract two readings to meter one campaign.
func EngineStats() EngineCounters { return core.EngineStats() }

// StructBreakdown returns each structure's share of an evaluation's total
// AVF (Fig. 2).
func StructBreakdown(eval *AppEval) map[string]float64 { return core.StructBreakdown(eval) }

// OnChipStructures lists the structures counted in the chip AVF.
func OnChipStructures() []Structure { return core.OnChipStructures() }

// RegFileClassBreakdown splits an evaluation's register-file AVF by fault
// class (Figs. 1 and 5).
func RegFileClassBreakdown(eval *AppEval) map[Outcome]float64 {
	return core.RegFileClassBreakdown(eval)
}

// PerformanceShare returns Performance effects as a share of functionally
// masked register-file injections (Fig. 4).
func PerformanceShare(eval *AppEval) float64 { return core.PerformanceShare(eval) }

// WriteLog serializes a campaign result as JSON lines.
func WriteLog(w io.Writer, res *CampaignResult) error { return store.WriteLog(w, res) }

// ParseLog reads campaign logs back (the parser module).
func ParseLog(r io.Reader) ([]*CampaignResult, error) { return store.ParseLog(r) }

// ParseLogLenient parses like ParseLog but tolerates a torn final record —
// the crash signature a durable journal recovers from — reporting whether
// such a tail was dropped.
func ParseLogLenient(r io.Reader) (res []*CampaignResult, truncated bool, err error) {
	return store.ParseLogLenient(r)
}

// LogHeader is a campaign's log header record.
type LogHeader = store.Header

// LogWriter writes campaign records incrementally (header, then one
// record per experiment) through the same codec the durable campaign
// store journals with.
type LogWriter = store.LogWriter

// NewLogWriter returns a campaign log writer emitting JSONL records to w.
func NewLogWriter(w io.Writer) *LogWriter { return store.NewLogWriter(w) }

// SampleSize returns the statistically significant injection count for a
// population, confidence, and error margin (Leveugle et al.).
func SampleSize(population, confidence, margin float64) int {
	return core.SampleSize(population, confidence, margin)
}

// Wilson returns the Wilson score interval bounding a campaign's true
// failure ratio at the given confidence.
func Wilson(failures, total int, confidence float64) (lo, hi float64) {
	return core.Wilson(failures, total, confidence)
}

// Margin returns the half-width of the Wilson interval (the campaign's
// error margin).
func Margin(failures, total int, confidence float64) float64 {
	return core.Margin(failures, total, confidence)
}

// Interval returns the confidence interval for k failures out of n under
// the named method: "wilson" (default) or "clopper-pearson" (exact).
func Interval(method string, k, n int, confidence float64) (lo, hi float64, err error) {
	return plan.Interval(method, k, n, confidence)
}

// DfReg and DfSmem are the paper's derating factors.
func DfReg(regsPerThread int, meanThreadsPerSM float64, regFilePerSM int) float64 {
	return avf.DfReg(regsPerThread, meanThreadsPerSM, regFilePerSM)
}

// DfSmem is the shared-memory derating factor.
func DfSmem(ctaSmemBytes int, meanCTAsPerSM float64, smemPerSM int) float64 {
	return avf.DfSmem(ctaSmemBytes, meanCTAsPerSM, smemPerSM)
}

// KernelAVF is Eq. (2); WeightedAVF is Eq. (3); FIT is the Section VI.F
// rate.
func KernelAVF(results []StructResult) float64     { return avf.KernelAVF(results) }
func WeightedAVF(kernels []KernelEntry) float64    { return avf.WeightedAVF(kernels) }
func FIT(a, rawPerBit float64, bits int64) float64 { return avf.FIT(a, rawPerBit, bits) }

package core

import (
	"context"
	"fmt"

	"gpufi/internal/avf"
	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// OnChipStructures are the structures contributing to the chip AVF
// (equation 2): the paper's Table I on-chip storage. Local memory is
// injectable but off-chip, so it carries no share of the chip AVF.
func OnChipStructures() []sim.Structure {
	return []sim.Structure{sim.StructRegFile, sim.StructShared, sim.StructL1D, sim.StructL1T, sim.StructL2}
}

// StructAVF is one structure's campaign outcome for one kernel, with the
// derating and size bookkeeping applied.
type StructAVF struct {
	Structure sim.Structure
	Counts    avf.Counts
	SizeBits  int64   // chip-wide Size_i of equation (2)
	Derate    float64 // df_reg / df_smem, 1 elsewhere
}

// Result converts to the avf package's record.
func (s StructAVF) Result() avf.StructResult {
	return avf.StructResult{
		Name:     s.Structure.String(),
		Counts:   s.Counts,
		SizeBits: s.SizeBits,
		Derate:   s.Derate,
	}
}

// KernelEval is the per-kernel AVF evaluation.
type KernelEval struct {
	Kernel    string
	Cycles    uint64
	Occupancy float64
	Structs   []StructAVF
	AVF       float64
}

// AppEval is a full application evaluation on one GPU: the inputs to every
// figure of the paper.
type AppEval struct {
	App       string
	GPU       string
	Kernels   []KernelEval
	WAVF      float64 // equation (3)
	FIT       float64 // Section VI.F
	Occupancy float64 // cycle-weighted warp occupancy (Fig. 3 red dots)

	// RegFile aggregates the register-file campaign outcomes across
	// kernels (cycle-weighted), for the Fig. 1/4/5 breakdowns.
	RegFile avf.Counts
}

// EvalConfig tunes an application evaluation.
type EvalConfig struct {
	Runs    int // injections per (kernel, structure) point
	Bits    int // fault multiplicity
	Seed    int64
	Workers int
	// Structures limits the evaluation (nil = all on-chip structures).
	Structures []sim.Structure
}

// EvaluateApp runs the full campaign matrix for one application on one
// GPU: every static kernel x every on-chip structure, then assembles
// AVF_kernel (Eq. 2), wAVF (Eq. 3) and the chip FIT rate. Every point is
// planned first, with the seed it would have as a campaign of its own, and
// the matrix runs as one engine run: one fault-free prefix for the whole
// application. The context cancels the evaluation.
func EvaluateApp(ctx context.Context, app *bench.App, gpu *config.GPU, cfg EvalConfig) (*AppEval, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Runs <= 0 {
		return nil, fmt.Errorf("core: evaluation needs a positive run count")
	}
	prof, err := ProfileApp(ctx, app, gpu)
	if err != nil {
		return nil, err
	}
	eval, points, err := planEval(app, gpu, prof, cfg)
	if err != nil {
		return nil, err
	}
	sess := &Session{prof: prof}
	defer sess.Close()
	results, err := sess.runPoints(ctx, points)
	if err != nil {
		return nil, fmt.Errorf("core: evaluate %s: %w", app.Name, err)
	}
	eval.assemble(gpu, cfg.structures(), results)
	return eval, nil
}

// structures resolves the evaluated structure list.
func (c EvalConfig) structures() []sim.Structure {
	if c.Structures == nil {
		return OnChipStructures()
	}
	return c.Structures
}

// planEval lays out the evaluation matrix: the AppEval with every kernel's
// structures, sizes and derating factors in place (outcome counts still
// empty), and the planned campaign points in the same kernel-major order.
func planEval(app *bench.App, gpu *config.GPU, prof *Profile, cfg EvalConfig) (*AppEval, []*point, error) {
	if cfg.Bits <= 0 {
		cfg.Bits = 1
	}
	eval := &AppEval{App: app.Name, GPU: gpu.Name}
	var points []*point
	for ki, kname := range prof.KernelOrder {
		ks := prof.Kernels[kname]
		ke := KernelEval{Kernel: kname, Cycles: ks.TotalCycles, Occupancy: ks.Occupancy}
		for si, st := range cfg.structures() {
			if ChipSizeBits(gpu, st) == 0 && st != sim.StructShared {
				continue // absent structure (GTX Titan L1D)
			}
			ccfg := &CampaignConfig{
				App: app, GPU: gpu, Kernel: kname, Structure: st,
				Runs: cfg.Runs, Bits: cfg.Bits,
				Seed:    cfg.Seed ^ int64(ki*131+si*17+1)*0x5DEECE66D,
				Workers: cfg.Workers,
			}
			cp, err := planCampaign(ccfg, prof)
			if err != nil {
				return nil, nil, fmt.Errorf("core: %s/%s/%s: %w", app.Name, kname, st, err)
			}
			points = append(points, &point{cfg: ccfg, plan: cp, pending: cp.pending})
			sa := StructAVF{Structure: st, SizeBits: ChipSizeBits(gpu, st), Derate: 1}
			switch st {
			case sim.StructRegFile:
				sa.Derate = avf.DfReg(ks.RegsPerThread, ks.MeanThreadsPerSM, gpu.RegistersPerSM)
			case sim.StructShared:
				sa.Derate = avf.DfSmem(ks.SmemPerCTA, ks.MeanCTAsPerSM, gpu.SmemPerSM)
			}
			ke.Structs = append(ke.Structs, sa)
		}
		eval.Kernels = append(eval.Kernels, ke)
	}
	return eval, points, nil
}

// assemble fills in the points' outcome counts (results are in planEval's
// order) and folds them into AVF_kernel, wAVF, occupancy and the chip FIT rate.
func (eval *AppEval) assemble(gpu *config.GPU, structures []sim.Structure, results []*CampaignResult) {
	var kernelEntries []avf.KernelEntry
	var occNum float64
	var occDen uint64
	for k := range eval.Kernels {
		ke := &eval.Kernels[k]
		var structs []avf.StructResult
		for s := range ke.Structs {
			sa := &ke.Structs[s]
			sa.Counts, results = results[0].Counts, results[1:]
			if sa.Structure == sim.StructRegFile {
				eval.RegFile.Merge(sa.Counts)
			}
			structs = append(structs, sa.Result())
		}
		ke.AVF = avf.KernelAVF(structs)
		kernelEntries = append(kernelEntries, avf.KernelEntry{Name: ke.Kernel, AVF: ke.AVF, Cycles: ke.Cycles})
		occNum += ke.Occupancy * float64(ke.Cycles)
		occDen += ke.Cycles
	}

	eval.WAVF = avf.WeightedAVF(kernelEntries)
	if occDen > 0 {
		eval.Occupancy = occNum / float64(occDen)
	}

	// Chip FIT: cycle-weighted per-structure AVFs over all kernels.
	var fitResults []avf.StructResult
	for _, st := range structures {
		bits := ChipSizeBits(gpu, st)
		if bits == 0 {
			continue
		}
		var num float64
		var den uint64
		for _, ke := range eval.Kernels {
			for _, sa := range ke.Structs {
				if sa.Structure == st {
					num += sa.Result().AVF() * float64(ke.Cycles)
					den += ke.Cycles
				}
			}
		}
		a := 0.0
		if den > 0 {
			a = num / float64(den)
		}
		fitResults = append(fitResults, avf.StructResult{
			Name:     st.String(),
			SizeBits: bits,
			Derate:   1,
			Counts:   syntheticCounts(a),
		})
	}
	eval.FIT = avf.TotalFIT(fitResults, gpu.RawFITPerBit)
}

// syntheticCounts builds a Counts whose FailureRatio equals the given AVF,
// for feeding pre-weighted AVFs through the FIT helper.
func syntheticCounts(a float64) avf.Counts {
	const denom = 1_000_000
	f := int(a * denom)
	return avf.Counts{SDC: f, Masked: denom - f}
}

// RegFileClassBreakdown splits the application's register-file AVF by
// fault-effect class (the stacked bars of Figs. 1 and 5): each class
// contributes its cycle-weighted, derated ratio.
func RegFileClassBreakdown(eval *AppEval) map[avf.Outcome]float64 {
	out := make(map[avf.Outcome]float64)
	var totalCycles uint64
	for _, ke := range eval.Kernels {
		totalCycles += ke.Cycles
	}
	if totalCycles == 0 {
		return out
	}
	for _, ke := range eval.Kernels {
		for _, sa := range ke.Structs {
			if sa.Structure != sim.StructRegFile {
				continue
			}
			w := float64(ke.Cycles) / float64(totalCycles)
			for _, o := range []avf.Outcome{avf.SDC, avf.Crash, avf.Timeout, avf.Masked} {
				out[o] += sa.Counts.Ratio(o) * sa.Derate * w
			}
		}
	}
	return out
}

// PerformanceShare returns the Performance fault effects as a share of
// all functionally masked injections across every structure campaign of
// the evaluation (Fig. 4): faults that leave the output intact but change
// the cycle count — e.g. a corrupted cache tag forcing an extra refetch.
func PerformanceShare(eval *AppEval) float64 {
	var perf, masked int
	for _, ke := range eval.Kernels {
		for _, sa := range ke.Structs {
			perf += sa.Counts.Performance
			masked += sa.Counts.Masked
		}
	}
	if perf+masked == 0 {
		return 0
	}
	return float64(perf) / float64(perf+masked)
}

// StructBreakdown returns each structure's share of the kernel-weighted
// total AVF for an evaluated app (the pie charts of Fig. 2).
func StructBreakdown(eval *AppEval) map[string]float64 {
	contrib := make(map[string]float64)
	var totalCycles uint64
	for _, ke := range eval.Kernels {
		totalCycles += ke.Cycles
	}
	if totalCycles == 0 {
		return contrib
	}
	var den float64
	sizes := make(map[string]float64)
	for _, ke := range eval.Kernels {
		for _, sa := range ke.Structs {
			w := float64(ke.Cycles) / float64(totalCycles)
			contrib[sa.Structure.String()] += sa.Result().AVF() * float64(sa.SizeBits) * w
			sizes[sa.Structure.String()] = float64(sa.SizeBits)
		}
	}
	for _, s := range sizes {
		den += s
	}
	if den == 0 {
		return contrib
	}
	var total float64
	for k := range contrib {
		contrib[k] /= den
		total += contrib[k]
	}
	if total > 0 {
		for k := range contrib {
			contrib[k] /= total // normalize to shares of the overall AVF
		}
	}
	return contrib
}

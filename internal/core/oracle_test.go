package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gpufi/internal/avf"
	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// This file holds the oracles the fork engine is checked against. The
// full-replay oracle: every experiment is a fresh simulation from cycle 0,
// re-executing the fault-free prefix up to its injection cycle. It shares
// the planner, the collector and the sandbox with the engine, so a
// disagreement can only come from snapshot, fork or restore. And the
// per-point oracles: the evaluation as a loop of one-point campaigns, and
// the cluster planner of a run that carried one point. They live in a
// _test.go file so no campaign can select them.

// replayCampaign runs cfg's pending experiments on the oracle.
func replayCampaign(ctx context.Context, cfg *CampaignConfig, prof *Profile) (*CampaignResult, error) {
	cp, err := planCampaign(cfg, prof)
	if err != nil {
		return nil, err
	}
	return runReplay(ctx, cfg, prof, cp, cp.pending)
}

// runReplay simulates the experiment indices pending of plan cp from cycle
// 0, one fresh GPU each, over cfg's worker pool. When the structure is
// absent it runs the application fault-free once on a fresh GPU instead, and
// records every index Masked with that run's cycle count.
func runReplay(ctx context.Context, cfg *CampaignConfig, prof *Profile, cp *campaignPlan, pending []int) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	col := newCollector(cfg, cfg.Runs)
	if cp.absent {
		g, err := sim.New(cfg.GPU)
		if err != nil {
			return nil, err
		}
		g.SetContext(ctx)
		if _, err := cfg.App.Run(g); err != nil {
			return nil, err
		}
		for _, i := range pending {
			exp := Experiment{ID: i, Outcome: avf.Masked, Effect: avf.Masked.String(),
				Cycles: g.Cycle(), Detail: "structure absent for kernel"}
			if cfg.Trace {
				classifyOnlyTrace(&exp)
			}
			if err := col.add(i, exp); err != nil {
				return nil, err
			}
		}
		return col.result(prof), nil
	}
	workers := cfg.workerCount()
	if workers > len(pending) {
		workers = len(pending)
	}
	var wg sync.WaitGroup
	var pos int64 = -1
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(atomic.AddInt64(&pos, 1))
				if k >= len(pending) || ctx.Err() != nil {
					return
				}
				i := pending[k]
				g, err := sim.New(cfg.GPU)
				if err == nil {
					var exp Experiment
					exp, _, err = runExperimentSandboxed(ctx, cfg, prof, g, cp.specs[i], cp.extras[i], i, new(phaseNS))
					if err == nil {
						err = col.add(i, exp)
						if err == nil {
							continue
						}
					}
				}
				select {
				case errCh <- err:
				default:
				}
				return
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		if !isCancel(err) {
			return nil, err
		}
	default:
	}
	if err := ctx.Err(); err != nil {
		return col.result(prof), err
	}
	return col.result(prof), nil
}

// evaluatePerPoint is the evaluation EvaluateApp replaced: a double loop
// that runs every (kernel, structure) point as a campaign of its own — its
// own device borrow, its own fault-free prefix — and assembles the numbers
// as it goes. The fused evaluation is held to it point by point. tap, when
// non-nil, sees each point's config before it runs (to attach hooks).
func evaluatePerPoint(ctx context.Context, app *bench.App, gpu *config.GPU, cfg EvalConfig,
	prof *Profile, tap func(n int, ccfg *CampaignConfig)) (*AppEval, error) {

	if cfg.Bits <= 0 {
		cfg.Bits = 1
	}
	structures := cfg.Structures
	if structures == nil {
		structures = OnChipStructures()
	}
	eval := &AppEval{App: app.Name, GPU: gpu.Name}
	var kernelEntries []avf.KernelEntry
	var occNum float64
	var occDen uint64
	n := 0
	for ki, kname := range prof.KernelOrder {
		ks := prof.Kernels[kname]
		ke := KernelEval{Kernel: kname, Cycles: ks.TotalCycles, Occupancy: ks.Occupancy}
		var results []avf.StructResult
		for si, st := range structures {
			if ChipSizeBits(gpu, st) == 0 && st != sim.StructShared {
				continue // absent structure (GTX Titan L1D)
			}
			ccfg := &CampaignConfig{
				App: app, GPU: gpu, Kernel: kname, Structure: st,
				Runs: cfg.Runs, Bits: cfg.Bits,
				Seed:    cfg.Seed ^ int64(ki*131+si*17+1)*0x5DEECE66D,
				Workers: cfg.Workers,
			}
			if tap != nil {
				tap(n, ccfg)
			}
			n++
			cres, err := RunCampaign(ctx, ccfg, prof)
			if err != nil {
				return nil, fmt.Errorf("core: %s/%s/%s: %w", app.Name, kname, st, err)
			}
			sa := StructAVF{
				Structure: st,
				Counts:    cres.Counts,
				SizeBits:  ChipSizeBits(gpu, st),
				Derate:    1,
			}
			switch st {
			case sim.StructRegFile:
				sa.Derate = avf.DfReg(ks.RegsPerThread, ks.MeanThreadsPerSM, gpu.RegistersPerSM)
				eval.RegFile.Merge(cres.Counts)
			case sim.StructShared:
				sa.Derate = avf.DfSmem(ks.SmemPerCTA, ks.MeanCTAsPerSM, gpu.SmemPerSM)
			}
			ke.Structs = append(ke.Structs, sa)
			results = append(results, sa.Result())
		}
		ke.AVF = avf.KernelAVF(results)
		eval.Kernels = append(eval.Kernels, ke)
		kernelEntries = append(kernelEntries, avf.KernelEntry{Name: kname, AVF: ke.AVF, Cycles: ks.TotalCycles})
		occNum += ks.Occupancy * float64(ks.TotalCycles)
		occDen += ks.TotalCycles
	}
	eval.WAVF = avf.WeightedAVF(kernelEntries)
	if occDen > 0 {
		eval.Occupancy = occNum / float64(occDen)
	}
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
			Name: st.String(), SizeBits: bits, Derate: 1, Counts: syntheticCounts(a),
		})
	}
	eval.FIT = avf.TotalFIT(fitResults, gpu.RawFITPerBit)
	return eval, nil
}

// planClustersPerPoint is the cluster planner as it was when a run carried
// one point: one campaign's pending indices, its own windows, a scan of
// every window for every experiment. planClusters must equal it on one
// point, and windowCursor must equal its window scan.
func planClustersPerPoint(pending []int, specs []*sim.FaultSpec, windows []sim.CycleWindow) (snaps []uint64, idxs [][]int) {
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
	var curWin uint64
	for _, i := range order {
		c := specs[i].Cycle
		w := windowStartScan(windows, c)
		if len(snaps) == 0 || w != curWin || c-(snaps[len(snaps)-1]+1) > maxSpan {
			snaps = append(snaps, c-1)
			idxs = append(idxs, nil)
			curWin = w
		}
		idxs[len(idxs)-1] = append(idxs[len(idxs)-1], i)
	}
	return snaps, idxs
}

// windowStartScan is the every-window scan windowCursor replaced.
func windowStartScan(windows []sim.CycleWindow, cycle uint64) uint64 {
	for _, w := range windows {
		if cycle > w.Start && cycle <= w.End {
			return w.Start
		}
	}
	return 0
}

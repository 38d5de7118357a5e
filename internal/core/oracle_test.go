package core

import (
	"context"
	"sync"
	"sync/atomic"

	"gpufi/internal/sim"
)

// This file is the full-replay oracle the fork engine is checked against:
// every experiment is a fresh simulation from cycle 0, re-executing the
// fault-free prefix up to its injection cycle. It shares the planner, the
// collector and the sandbox with the engine, so a disagreement can only
// come from snapshot, fork or restore. It lives in a _test.go file so no
// campaign can select it.

// replayCampaign runs cfg's pending experiments on the oracle.
func replayCampaign(ctx context.Context, cfg *CampaignConfig, prof *Profile) (*CampaignResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cp, err := planCampaign(cfg, prof)
	if err != nil {
		return nil, err
	}
	return runReplay(ctx, cfg, prof, cp.pending, cp.specs, cp.extras)
}

// runReplay simulates the pending experiment indices from cycle 0, one
// fresh GPU each, over cfg's worker pool.
func runReplay(ctx context.Context, cfg *CampaignConfig, prof *Profile,
	pending []int, specs []*sim.FaultSpec, extras [][]*sim.FaultSpec) (*CampaignResult, error) {

	workers := cfg.workerCount()
	if workers > len(pending) {
		workers = len(pending)
	}
	col := newCollector(cfg, len(specs))
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
					exp, _, err = runExperimentSandboxed(ctx, cfg, prof, g, specs[i], extras[i], i)
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

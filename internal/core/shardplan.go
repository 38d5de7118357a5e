package core

import (
	"fmt"

	"gpufi/internal/sim"
)

// This file is the campaign planner shared by the local engine and the
// distributed sharding layer. planCampaign derives everything a campaign
// needs before any simulation happens — the injection windows, the
// pending experiment indices, and the per-experiment fault specs — and
// PlanShards partitions the pending work along snapshot-cluster
// boundaries so a coordinator can hand whole clusters to worker nodes.

// campaignPlan is the deterministic front half of a campaign: the
// injection windows for the target kernel, the experiment indices still
// pending (everything not in cfg.Completed), and the fault specs derived
// from the seed. The specs cover ALL Runs indices, pending or not: the
// seed-to-fault mapping must be identical no matter how a campaign is
// resumed or sharded. A spec costs only its handful of draws (MaskGen's
// source seeds in O(1)): the coordinator and every shard each re-deriving
// the whole plan is ~0.1 ms per thousand runs.
type campaignPlan struct {
	windows []sim.CycleWindow
	pending []int
	specs   []*sim.FaultSpec
	extras  [][]*sim.FaultSpec

	// absent marks a structure the kernel/card combination does not have
	// (e.g. shared memory in a kernel that uses none): every experiment
	// is trivially masked and no specs are derived.
	absent bool
}

// planCampaign validates cfg against the profile and derives the plan.
func planCampaign(cfg *CampaignConfig, prof *Profile) (*campaignPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ks := prof.Kernels[cfg.Kernel]
	if ks == nil {
		return nil, fmt.Errorf("core: kernel %q not in profile (have %v)", cfg.Kernel, prof.KernelOrder)
	}
	windows := ks.Windows
	if cfg.Invocation > 0 {
		if cfg.Invocation > len(ks.Windows) {
			return nil, fmt.Errorf("core: kernel %q has %d invocations, requested #%d",
				cfg.Kernel, len(ks.Windows), cfg.Invocation)
		}
		windows = ks.Windows[cfg.Invocation-1 : cfg.Invocation]
	}
	skip := make(map[int]bool, len(cfg.Completed))
	for _, i := range cfg.Completed {
		if i >= 0 && i < cfg.Runs {
			skip[i] = true
		}
	}
	pending := make([]int, 0, cfg.Runs-len(skip))
	for i := 0; i < cfg.Runs; i++ {
		if !skip[i] {
			pending = append(pending, i)
		}
	}
	plan := &campaignPlan{windows: windows, pending: pending}

	sizeBits := StructSizeBits(cfg.GPU, cfg.Structure, ks.RegsPerThread, ks.SmemPerCTA, ks.LocalPerThr)
	if sizeBits == 0 {
		plan.absent = true
		return plan, nil
	}
	newGen := func(st sim.Structure, seed int64) (*MaskGen, error) {
		bits := StructSizeBits(cfg.GPU, st, ks.RegsPerThread, ks.SmemPerCTA, ks.LocalPerThr)
		if bits == 0 {
			return nil, nil // structure absent: contributes nothing
		}
		g, err := NewMaskGen(st, windows, bits, cfg.Bits, seed)
		if err != nil {
			return nil, err
		}
		g.SetWarpWide(cfg.WarpWide)
		g.SetBlocks(cfg.Blocks)
		if st == sim.StructL1D || st == sim.StructL1T {
			g.SetCoreMask(ks.UsedCores)
		}
		return g, nil
	}
	gen, err := newGen(cfg.Structure, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var extraGens []*MaskGen
	for i, st := range cfg.Simultaneous {
		g, err := newGen(st, cfg.Seed+int64(i+1)*7919)
		if err != nil {
			return nil, err
		}
		if g != nil {
			extraGens = append(extraGens, g)
		}
	}

	// Derive every experiment's fault specs up front, serially: this is
	// what pins the outcome to the seed regardless of worker count,
	// scheduling, resume, or shard assignment.
	plan.specs = make([]*sim.FaultSpec, cfg.Runs)
	plan.extras = make([][]*sim.FaultSpec, cfg.Runs)
	for i := range plan.specs {
		plan.specs[i] = gen.Spec(i)
		for _, eg := range extraGens {
			es := eg.Spec(i)
			es.Cycle = plan.specs[i].Cycle // simultaneous: same injection instant
			plan.extras[i] = append(plan.extras[i], es)
		}
	}
	return plan, nil
}

// PlanShards partitions a campaign's pending experiments into at most
// target shards, each a union of whole snapshot clusters (the groups the
// fork engine snapshots together — one prefix run plus its forks). A
// cluster never splits across shards, so each worker pays for the shared
// prefix state of a cluster exactly once; shards are contiguous in
// injection-cycle order and balanced by experiment count. Indices listed
// in cfg.Completed are excluded, so re-planning a resumed campaign covers
// only the journal's gaps. The plan is deterministic in (cfg, prof):
// re-planning after a coordinator restart yields the same partition.
func PlanShards(cfg *CampaignConfig, prof *Profile, target int) ([][]int, error) {
	plan, err := planCampaign(cfg, prof)
	if err != nil {
		return nil, err
	}
	if len(plan.pending) == 0 {
		return nil, nil
	}
	if target <= 0 {
		target = 1
	}
	if plan.absent {
		// Every experiment is trivially masked; any partition is valid.
		// Split the pending indices into near-equal contiguous runs.
		return splitEven(plan.pending, target), nil
	}
	clusters := planClusters([]*point{{plan: plan, pending: plan.pending}})
	if target > len(clusters) {
		target = len(clusters)
	}
	// Greedy contiguous fill: each shard takes whole clusters until it
	// reaches its fair share of the remaining experiments.
	shards := make([][]int, 0, target)
	remaining := len(plan.pending)
	ci := 0
	for s := 0; s < target; s++ {
		left := target - s
		quota := (remaining + left - 1) / left
		// Keep the last shard from leaving clusters behind.
		var idxs []int
		for ci < len(clusters) && (len(idxs) == 0 || s == target-1 || len(idxs)+len(clusters[ci].jobs) <= quota) {
			for _, j := range clusters[ci].jobs {
				idxs = append(idxs, j.i)
			}
			ci++
		}
		remaining -= len(idxs)
		shards = append(shards, idxs)
	}
	return shards, nil
}

// splitEven cuts idxs into at most n contiguous, near-equal pieces.
func splitEven(idxs []int, n int) [][]int {
	if n > len(idxs) {
		n = len(idxs)
	}
	out := make([][]int, 0, n)
	for s, off := 0, 0; s < n; s++ {
		size := (len(idxs) - off + (n - s) - 1) / (n - s)
		out = append(out, append([]int(nil), idxs[off:off+size]...))
		off += size
	}
	return out
}

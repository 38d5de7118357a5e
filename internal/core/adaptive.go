package core

import (
	"context"
	"fmt"

	"gpufi/internal/avf"
	"gpufi/internal/plan"
	"gpufi/internal/sim"
)

// This file is the adaptive campaign driver. A fixed-N campaign runs every
// derived experiment; the adaptive driver treats Runs as a ceiling and
// spends only what the requested confidence interval needs:
//
//  1. Analytic pre-pass — one extra fault-free run with the simulator's
//     access log on proves which register/shared-memory sites are never
//     architecturally read at or after their injection cycle. Those
//     experiments are journaled Masked without simulation (the pre-pass
//     yields exactly what simulating them would: register and shared
//     state dies with its launch, so an unread flip cannot reach the
//     output or the cycle count).
//  2. Stratified rounds — the remaining sites execute in an order that
//     sweeps the injection-cycle range evenly, in rounds sized by the
//     tracker; between rounds the stop rule is re-evaluated. Round
//     granularity (floor 32) bounds the optional-stopping bias of
//     checking a sequential interval after every single outcome.
//
// The seed-to-fault mapping is untouched: every index's spec is still
// derived up front, the planner just stops running indices once the
// interval is tight enough. Journals from an adaptive campaign are a
// subset of the fixed-N journal plus analytic records, so resume (and the
// shard layer) work unchanged.

// AnalyticDetail marks journal records produced by the analytic pre-pass.
const AnalyticDetail = "plan: analytic never-read"

// planStrata is the number of cycle quantiles the stratified order sweeps.
const planStrata = 16

// PlanReport is the adaptive planner's summary of a finished campaign
// point, attached to CampaignResult (and surfaced through campaign stats,
// /metrics, and the CLIs).
type PlanReport struct {
	plan.Status
	// Simulated is how many experiments this process actually simulated.
	Simulated int `json:"simulated"`
	// Skipped is how many pending experiments never ran because the stop
	// rule was satisfied first — the campaign's saving.
	Skipped int `json:"skipped"`
}

// AccessPrepass runs the application once, fault-free, with the access log
// enabled, and returns the per-launch last-read records the analytic
// masking test consumes.
func AccessPrepass(ctx context.Context, cfg *CampaignConfig) ([]sim.LaunchAccess, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g, err := sim.Borrow(cfg.GPU)
	if err != nil {
		return nil, err
	}
	g.SetContext(ctx)
	g.EnableAccessLog()
	_, err = cfg.App.Run(g)
	g.Release()
	if err != nil {
		if isCancel(err) {
			return nil, err
		}
		return nil, fmt.Errorf("core: access pre-pass run of %s failed: %w", cfg.App.Name, err)
	}
	return g.LaunchAccesses(), nil
}

// analyticEligible reports whether the campaign point can use the
// never-read pre-pass at all. Only the structures whose state is directly
// the architectural cell qualify: a register or shared-memory flip that is
// never read cannot propagate, while a cache flip can reach memory through
// writeback without any load ever observing it. Simultaneous-structure
// campaigns are excluded — the extra faults land in structures the log
// does not cover.
func analyticEligible(cfg *CampaignConfig) bool {
	if len(cfg.Simultaneous) != 0 {
		return false
	}
	return cfg.Structure == sim.StructRegFile || cfg.Structure == sim.StructShared
}

// launchFor finds the pre-pass record of the kernel launch whose cycle
// window contains the injection cycle (windows are (Start, End], matching
// the mask generator's draw).
func launchFor(accesses []sim.LaunchAccess, kernel string, cycle uint64) *sim.LaunchAccess {
	for i := range accesses {
		la := &accesses[i]
		if la.Kernel == kernel && cycle > la.Start && cycle <= la.End {
			return la
		}
	}
	return nil
}

// analyticallyMasked reports whether every bit of the spec lands in a cell
// that is never read at or after the injection cycle — the provably-Masked
// criterion. Conservative on every unknown: no matching launch record, or
// an ineligible structure, means "cannot prove, simulate it". The test is
// independent of which thread or CTA the injector picks (the log
// aggregates the max last-read over all of them), so it also covers
// warp-wide and multi-CTA injections.
func analyticallyMasked(cfg *CampaignConfig, spec *sim.FaultSpec, accesses []sim.LaunchAccess) bool {
	la := launchFor(accesses, cfg.Kernel, spec.Cycle)
	if la == nil {
		return false
	}
	switch cfg.Structure {
	case sim.StructRegFile:
		for _, pos := range spec.BitPositions {
			if la.RegReadAfter(int(pos/32), spec.Cycle) {
				return false
			}
		}
		return true
	case sim.StructShared:
		for _, pos := range spec.BitPositions {
			if la.SmemWordReadAfter(uint32(pos/8/4), spec.Cycle) {
				return false
			}
		}
		return true
	}
	return false
}

// PlanAnalytic runs the access pre-pass for a campaign point and returns
// one journal-ready Masked record per provably never-read index, covering
// ALL Runs indices (completed or not) in index order, for SeedAdaptive: the
// coordinator journals the pending ones itself and excludes them from the
// shards it plans. Returns nil for campaign points the pre-pass cannot
// soundly cover (ineligible structures, simultaneous faults, absent
// structures).
func PlanAnalytic(ctx context.Context, cfg *CampaignConfig, prof *Profile) ([]Experiment, error) {
	if !analyticEligible(cfg) {
		return nil, nil
	}
	cp, err := planCampaign(cfg, prof)
	if err != nil {
		return nil, err
	}
	if cp.absent {
		return nil, nil
	}
	accesses, err := AccessPrepass(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return analyticRecords(cfg, prof, cp.specs, accesses), nil
}

// analyticRecords builds the journal-ready Masked records for every
// provably never-read index, in index order. The records carry the exact
// fields a simulated Masked run would have journaled (golden cycle count,
// spec cycle and bits), so they are byte-compatible with the store codec
// and resume cleanly.
func analyticRecords(cfg *CampaignConfig, prof *Profile, specs []*sim.FaultSpec, accesses []sim.LaunchAccess) []Experiment {
	var recs []Experiment
	for i := 0; i < cfg.Runs; i++ {
		if !analyticallyMasked(cfg, specs[i], accesses) {
			continue
		}
		exp := Experiment{
			ID: i, Cycle: specs[i].Cycle, Bits: specs[i].BitPositions,
			Outcome: avf.Masked, Effect: avf.Masked.String(),
			Cycles: prof.TotalCycles, Detail: AnalyticDetail,
		}
		if cfg.Trace {
			classifyOnlyTrace(&exp)
		}
		recs = append(recs, exp)
	}
	return recs
}

// SeedAdaptive is where an adaptive campaign point starts, on one process
// or under the shard coordinator: given the pre-pass's records for ALL
// indices (nil when the point is ineligible), it returns the tracker seeded
// with both strata and the records still to be journaled, in index order.
// The strata sizes cover the whole campaign, and a resumed prior — the
// journal's tally, which pools both strata — is split back by peeling the
// completed analytic indices off its Masked count (an analytically masked
// index was journaled Masked no matter which earlier run handled it), so
// only simulated outcomes enter the binomial.
func SeedAdaptive(cfg *CampaignConfig, recs []Experiment, prior avf.Counts) (*plan.Tracker, []Experiment) {
	journaled := make(map[int]bool, len(cfg.Completed))
	for _, i := range cfg.Completed {
		journaled[i] = true
	}
	var pending []Experiment
	for _, e := range recs {
		if !journaled[e.ID] {
			pending = append(pending, e)
		}
	}
	tracker := plan.NewTracker(*cfg.Plan)
	tracker.AddAnalytic(len(recs))
	tracker.SetStratum(cfg.Runs - len(recs))
	prior.Masked = max(prior.Masked-(len(recs)-len(pending)), 0)
	tracker.AddCounts(prior)
	return tracker, pending
}

// runAdaptive executes a campaign point under cfg.Plan: analytic pre-pass,
// then stratified rounds on the fork engine with a stop check between
// rounds. Journal/Quarantine/Trace/Progress semantics are the engine's
// own; analytic records reach the hooks through the same deliver call.
func runAdaptive(ctx context.Context, cfg *CampaignConfig, prof *Profile, cp *campaignPlan) (*CampaignResult, error) {
	res := &CampaignResult{
		App: prof.App, GPU: prof.GPU, Kernel: cfg.Kernel,
		Structure: cfg.Structure.String(), Bits: cfg.Bits,
		Runs: cfg.Runs, Seed: cfg.Seed, Exps: []Experiment{},
	}

	var recs []Experiment
	if analyticEligible(cfg) {
		accesses, err := AccessPrepass(ctx, cfg)
		if err != nil {
			if isCancel(err) {
				return res, err
			}
			return nil, err
		}
		recs = analyticRecords(cfg, prof, cp.specs, accesses)
	}
	tracker, analytic := SeedAdaptive(cfg, recs, cfg.PlanPrior)
	masked := make(map[int]bool, len(analytic))
	for _, exp := range analytic {
		masked[exp.ID] = true
		if err := cfg.deliver(exp); err != nil {
			return nil, err
		}
		exp.Trace = nil
		res.Exps = append(res.Exps, exp)
		res.Counts.Masked++
	}
	simPending := make([]int, 0, len(cp.pending)-len(analytic))
	for _, i := range cp.pending {
		if !masked[i] {
			simPending = append(simPending, i)
		}
	}

	// Stratified execution order over the to-simulate sites: any stopped
	// prefix of it has sampled all cycle regions of the kernel evenly.
	cycles := make([]uint64, len(simPending))
	for j, i := range simPending {
		cycles[j] = cp.specs[i].Cycle
	}
	order := plan.StratifiedOrder(cycles, planStrata)
	queue := make([]int, len(order))
	for j, o := range order {
		queue[j] = simPending[o]
	}

	simulated := 0
	var err error
	for off := 0; off < len(queue) && err == nil; {
		n := tracker.SuggestNext(len(queue) - off)
		if n == 0 {
			break
		}
		var r *CampaignResult
		r, err = runPoint(ctx, cfg, prof, cp, queue[off:off+n])
		off += n
		if r != nil {
			res.Counts.Merge(r.Counts)
			res.Exps = append(res.Exps, r.Exps...)
			tracker.AddCounts(r.Counts)
			simulated += r.Counts.Total()
		}
	}
	res.Plan = &PlanReport{Status: tracker.Status(), Simulated: simulated, Skipped: len(queue) - simulated}
	return res, err
}

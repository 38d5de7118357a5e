package core

import (
	"context"
	"fmt"

	"gpufi/internal/avf"
	"gpufi/internal/plan"
	"gpufi/internal/sim"
)

// This file is the campaign schedule: the rounds a campaign runs in, a pure
// function of its config and its journal, computed here for both drivers —
// RunCampaign runs each round on the engine, the shard coordinator plans
// each one as a shard generation. A fixed-N campaign is one round holding
// every pending index. An adaptive campaign (CampaignConfig.Plan) treats
// Runs as a ceiling and spends only what the requested confidence interval
// needs:
//
//  1. Analytic pre-pass — one extra fault-free run with the simulator's
//     access log on proves which register/shared-memory sites are never
//     architecturally read at or after their injection cycle. Those
//     experiments are journaled Masked without simulation (the pre-pass
//     yields exactly what simulating them would: register and shared
//     state dies with its launch, so an unread flip cannot reach the
//     output or the cycle count).
//  2. Stratified rounds — every other index of [0, Runs) is ordered to
//     sweep the injection-cycle range evenly, and the order is cut into
//     rounds sized by the tracker; the stop rule is evaluated only between
//     rounds. Round granularity (floor 32) bounds the optional-stopping
//     bias of checking a sequential interval after every single outcome.
//
// The order covers the whole campaign, journaled indices included, and a
// round's outcomes reach the tracker only once the whole round is in the
// journal. So a resumed campaign walks exactly the rounds an uninterrupted
// one does, and a sharded one, whose records arrive in any order, stops
// exactly where the library does. The seed-to-fault mapping is untouched:
// every index's spec is still derived up front, the schedule just stops
// handing out indices once the interval is tight enough.

// AnalyticDetail marks journal records produced by the analytic pre-pass.
const AnalyticDetail = "plan: analytic never-read"

// planStrata is the number of cycle quantiles the stratified order sweeps.
const planStrata = 16

// PlanReport is the adaptive planner's summary of a finished campaign
// point, attached to CampaignResult (and surfaced through campaign stats,
// /metrics, and the CLIs).
type PlanReport struct {
	plan.Status
	// Simulated is how many experiments of the simulated stratum the
	// campaign ran over its whole life, resumed runs included.
	Simulated int `json:"simulated"`
	// Skipped is how many pending experiments never ran because the stop
	// rule was satisfied first — the campaign's saving.
	Skipped int `json:"skipped"`
}

// accessPrepass runs the application once, fault-free, with the access log
// enabled, and returns the per-launch last-read records the analytic
// masking test consumes.
func accessPrepass(ctx context.Context, cfg *CampaignConfig) ([]sim.LaunchAccess, error) {
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

// Schedule is a campaign's rounds. NewSchedule builds it from the config,
// whose Completed and PlanPrior say what the journal already holds; Next
// hands out one round at a time, the driver runs it and reports every
// experiment that reaches the journal to Add, then asks again. Nothing else
// moves it, so two drivers fed the same journal walk the same rounds.
type Schedule struct {
	cp        *campaignPlan
	tracker   *plan.Tracker // nil: one round, no stop rule
	queue     []int         // the indices rounds are cut from, in execution order
	lo, hi    int           // the open round is queue[lo:hi]
	journaled map[int]bool
	outcomes  map[int]avf.Outcome // adaptive only: journaled outcomes, for the tracker
}

// NewSchedule plans cfg's campaign against prof. An adaptive campaign runs
// its analytic pre-pass here and returns the pre-pass's Masked records that
// are not journaled yet, in index order, for the caller to journal before
// the first round. A fixed-N campaign — and an adaptive one whose
// structure the kernel lacks or that has nothing pending — is one round of
// every pending index, with no stop rule and no plan report.
func NewSchedule(ctx context.Context, cfg *CampaignConfig, prof *Profile) (*Schedule, []Experiment, error) {
	cp, err := planCampaign(cfg, prof)
	if err != nil {
		return nil, nil, err
	}
	s := &Schedule{cp: cp, journaled: make(map[int]bool, len(cfg.Completed))}
	for _, i := range cfg.Completed {
		s.journaled[i] = true
	}
	if !cfg.Plan.Enabled() || cp.absent || len(cp.pending) == 0 {
		s.queue = cp.pending
		return s, nil, nil
	}
	var recs []Experiment
	if analyticEligible(cfg) {
		accesses, err := accessPrepass(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		recs = analyticRecords(cfg, prof, cp.specs, accesses)
	}
	s.tracker = plan.NewTracker(*cfg.Plan)
	s.tracker.AddAnalytic(len(recs))
	s.tracker.SetStratum(cfg.Runs - len(recs))
	analytic := make([]bool, cfg.Runs)
	var pending []Experiment
	for _, e := range recs {
		analytic[e.ID] = true
		if !s.journaled[e.ID] {
			pending = append(pending, e)
		}
	}
	// Stratified order over the whole simulated stratum: any stopped prefix
	// of it has sampled all cycle regions of the kernel evenly.
	var simulated []int
	var cycles []uint64
	for i := 0; i < cfg.Runs; i++ {
		if !analytic[i] {
			simulated = append(simulated, i)
			cycles = append(cycles, cp.specs[i].Cycle)
		}
	}
	for _, j := range plan.StratifiedOrder(cycles, planStrata) {
		s.queue = append(s.queue, simulated[j])
	}
	s.outcomes = make(map[int]avf.Outcome, len(cfg.PlanPrior))
	for _, e := range cfg.PlanPrior {
		s.outcomes[e.ID] = e.Outcome
	}
	return s, pending, nil
}

// Add records that exp reached the journal.
func (s *Schedule) Add(exp Experiment) {
	s.journaled[exp.ID] = true
	if s.tracker != nil {
		s.outcomes[exp.ID] = exp.Outcome
	}
}

// Next returns the indices of the next round that are not journaled yet,
// nil once the stop rule holds or the queue is spent. A round the journal
// holds whole is folded into the tracker and passed over; one it holds in
// part (a resumed campaign, a coordinator restarted mid-round) returns what
// it still lacks, and so does asking again before the round is complete.
func (s *Schedule) Next() []int {
	for {
		if s.lo == s.hi {
			n := len(s.queue) - s.lo
			if s.tracker != nil {
				n = s.tracker.SuggestNext(n)
			}
			if n == 0 {
				return nil
			}
			s.hi = s.lo + n
		}
		var missing []int
		for _, i := range s.queue[s.lo:s.hi] {
			if !s.journaled[i] {
				missing = append(missing, i)
			}
		}
		if missing != nil {
			return missing
		}
		if s.tracker != nil {
			for _, i := range s.queue[s.lo:s.hi] {
				if o, ok := s.outcomes[i]; ok {
					s.tracker.Add(o)
				}
			}
		}
		s.lo = s.hi
	}
}

// Report is the planner's summary of the rounds folded so far — the
// campaign's PlanReport once Next has returned nil — and nil for a campaign
// without a stop rule.
func (s *Schedule) Report() *PlanReport {
	if s.tracker == nil {
		return nil
	}
	n := s.tracker.Counts().Total()
	return &PlanReport{Status: s.tracker.Status(), Simulated: n, Skipped: len(s.queue) - n}
}

// Shards partitions a round into at most target shards along snapshot-
// cluster boundaries, the way PlanShards partitions a whole campaign.
func (s *Schedule) Shards(round []int, target int) [][]int { return s.cp.shards(round, target) }

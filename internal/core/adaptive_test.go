package core

import (
	"context"
	"encoding/json"
	"testing"

	"gpufi/internal/avf"
	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/plan"
	"gpufi/internal/sim"
)

// journalJSON collects a campaign's journal stream as marshaled bytes —
// the exact representation the durable store writes.
func journalJSON(t *testing.T, cfg *CampaignConfig, prof *Profile) ([]byte, *CampaignResult) {
	t.Helper()
	var buf []byte
	c := *cfg
	c.Sink = func(e Experiment) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
		return nil
	}
	res, err := RunCampaign(nil, &c, prof)
	if err != nil {
		t.Fatal(err)
	}
	return buf, res
}

// TestAdaptiveDisabledIsByteIdentical: a nil Plan and a zero-valued Plan
// must take exactly the pre-planner path — journal bytes identical, no
// PlanReport.
func TestAdaptiveDisabledIsByteIdentical(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	base := &CampaignConfig{
		App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 25, Bits: 1, Seed: 11,
		Workers: 1,
	}
	ref, refRes := journalJSON(t, base, prof)
	withZero := *base
	withZero.Plan = &plan.Rule{}
	got, gotRes := journalJSON(t, &withZero, prof)
	if string(ref) != string(got) {
		t.Error("zero-valued Plan changed journal bytes")
	}
	if refRes.Plan != nil || gotRes.Plan != nil {
		t.Error("PlanReport attached to a fixed-N campaign")
	}
}

// TestAdaptiveSoundVsFixed is the analytic-masking differential: with a
// stop rule too tight to ever converge, the adaptive campaign runs every
// pending index (analytically or simulated), and every per-ID outcome must
// be identical to the fixed-N campaign's — in particular, every record the
// pre-pass classified without simulation must be Masked with the exact
// golden cycle count in the fixed run.
func TestAdaptiveSoundVsFixed(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	base := &CampaignConfig{
		App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 120, Bits: 1, Seed: 42,
	}
	fixed, err := RunCampaign(nil, base, prof)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]Experiment{}
	for _, e := range fixed.Exps {
		byID[e.ID] = e
	}

	adaptiveCfg := *base
	// target_ci 0.001 needs ~1.6M observations: the rule never satisfies,
	// so all 120 indices run and the comparison is exhaustive.
	adaptiveCfg.Plan = &plan.Rule{TargetCI: 0.001}
	ad, err := RunCampaign(nil, &adaptiveCfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Plan == nil {
		t.Fatal("adaptive campaign returned no PlanReport")
	}
	if ad.Plan.Satisfied {
		t.Error("unreachable target reported satisfied")
	}
	if ad.Counts != fixed.Counts {
		t.Errorf("adaptive counts %+v != fixed %+v", ad.Counts, fixed.Counts)
	}
	if len(ad.Exps) != len(fixed.Exps) {
		t.Fatalf("adaptive ran %d experiments, fixed %d", len(ad.Exps), len(fixed.Exps))
	}
	analytic := 0
	for _, e := range ad.Exps {
		ref, ok := byID[e.ID]
		if !ok {
			t.Fatalf("adaptive ran unknown ID %d", e.ID)
		}
		if e.Effect != ref.Effect {
			t.Errorf("ID %d: adaptive %s, fixed %s (detail %q)", e.ID, e.Effect, ref.Effect, e.Detail)
		}
		if e.Detail == AnalyticDetail {
			analytic++
			if ref.Outcome != avf.Masked {
				t.Errorf("ID %d analytically masked but fixed run says %s", e.ID, ref.Effect)
			}
			if e.Cycles != ref.Cycles {
				t.Errorf("ID %d analytic cycles %d, fixed %d", e.ID, e.Cycles, ref.Cycles)
			}
		}
	}
	if analytic != ad.Plan.Analytic {
		t.Errorf("report says %d analytic, journal has %d", ad.Plan.Analytic, analytic)
	}
	if ad.Plan.Simulated+ad.Plan.Analytic != 120 || ad.Plan.Skipped != 0 {
		t.Errorf("accounting: simulated %d analytic %d skipped %d, want sum 120 / 0 skipped",
			ad.Plan.Simulated, ad.Plan.Analytic, ad.Plan.Skipped)
	}
}

// TestAdaptiveStopsEarlyWithinInterval: with an achievable target the
// campaign stops before the ceiling, reports the saving, and its interval
// contains the fixed-N ground-truth failure ratio.
func TestAdaptiveStopsEarlyWithinInterval(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	base := &CampaignConfig{
		App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 200, Bits: 1, Seed: 5,
	}
	fixed, err := RunCampaign(nil, base, prof)
	if err != nil {
		t.Fatal(err)
	}
	truth := fixed.Counts.FailureRatio()

	adaptiveCfg := *base
	adaptiveCfg.Plan = &plan.Rule{TargetCI: 0.12, Confidence: 0.95, MinRuns: 40}
	ad, err := RunCampaign(nil, &adaptiveCfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	rep := ad.Plan
	if rep == nil || !rep.Satisfied {
		t.Fatalf("adaptive campaign did not converge: %+v", rep)
	}
	if rep.Skipped == 0 {
		t.Errorf("no experiments saved: %+v", rep)
	}
	if rep.Observed >= 200 {
		t.Errorf("observed %d, expected early stop below the 200 ceiling", rep.Observed)
	}
	if rep.HalfWidth > 0.12 {
		t.Errorf("reported half-width %f above target", rep.HalfWidth)
	}
	if truth < rep.Lo || truth > rep.Hi {
		t.Errorf("fixed-N failure ratio %f outside adaptive interval [%f, %f]",
			truth, rep.Lo, rep.Hi)
	}
	if rep.Analytic+rep.Simulated+rep.Skipped != 200 {
		t.Errorf("accounting: %d+%d+%d != 200", rep.Analytic, rep.Simulated, rep.Skipped)
	}

	t.Logf("saved %d analytic + %d skipped of 200 (ratio %.2f), interval [%.4f, %.4f] around fixed-N %.4f",
		rep.Analytic, rep.Skipped, float64(rep.Skipped+rep.Analytic)/200, rep.Lo, rep.Hi, truth)
}

// TestAdaptivePriorSatisfies: a campaign whose journal already holds every
// round its stop rule needed — it died after its last record, before its
// done record — simulates and journals nothing when resumed, and
// reports exactly what the uninterrupted run reported.
func TestAdaptivePriorSatisfies(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &CampaignConfig{
		App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 200, Bits: 1, Seed: 5,
		Plan: &plan.Rule{TargetCI: 0.12, Confidence: 0.95, MinRuns: 40},
	}
	var journal []Experiment
	cfg.Sink = func(e Experiment) error { journal = append(journal, e); return nil }
	first, err := RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if rep := first.Plan; rep == nil || !rep.Satisfied || rep.Skipped == 0 || rep.Analytic == 0 {
		t.Fatalf("the fixture no longer stops early with both strata: %+v", rep)
	}

	resumed := *cfg
	resumed.Sink = func(e Experiment) error { t.Errorf("experiment %d journaled again", e.ID); return nil }
	for _, e := range journal {
		resumed.Completed = append(resumed.Completed, e.ID)
	}
	resumed.PlanPrior = journal
	res, err := RunCampaign(nil, &resumed, prof)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || *res.Plan != *first.Plan {
		t.Errorf("resumed report %+v, uninterrupted %+v", res.Plan, first.Plan)
	}
	if len(res.Exps) != 0 || res.Counts.Total() != 0 {
		t.Errorf("the resumed run finished %d experiments (%+v); the journal held every round", len(res.Exps), res.Counts)
	}
}

// TestAdaptiveLegacyEngineAgrees: every record an adaptive campaign
// produces — classified analytically or simulated on a fork — must match
// what the replay oracle gets by simulating that same index from cycle 0.
func TestAdaptiveLegacyEngineAgrees(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	base := &CampaignConfig{
		App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 60, Bits: 1, Seed: 17,
		Plan: &plan.Rule{TargetCI: 0.15, Confidence: 0.95, MinRuns: 30},
	}
	adaptive, err := RunCampaign(nil, base, prof)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Plan.Analytic == 0 || adaptive.Plan.Simulated == 0 {
		t.Fatalf("want both strata exercised, got %+v", adaptive.Plan)
	}
	cp, err := planCampaign(base, prof)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(adaptive.Exps))
	for i, e := range adaptive.Exps {
		ids[i] = e.ID
	}
	fixed := *base
	fixed.Plan = nil
	replay, err := runReplay(context.Background(), &fixed, prof, cp, ids)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Counts != replay.Counts {
		t.Errorf("adaptive %+v vs replay oracle %+v", adaptive.Counts, replay.Counts)
	}
	byID := map[int]Experiment{}
	for _, e := range replay.Exps {
		byID[e.ID] = e
	}
	for _, e := range adaptive.Exps {
		if r := byID[e.ID]; r.Effect != e.Effect || r.Cycles != e.Cycles {
			t.Errorf("ID %d: adaptive {%s %d %q}, replay oracle {%s %d}",
				e.ID, e.Effect, e.Cycles, e.Detail, r.Effect, r.Cycles)
		}
	}
}

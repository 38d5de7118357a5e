package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// TestTraceOutcomesBitIdentical is the tracer's first contract: turning
// propagation tracing on must not perturb the simulation. A 50-experiment
// campaign with Trace enabled must land on outcome counts — and per
// experiment, the same effect, cycle count and detail — bit-identical to
// the untraced run. The only permitted difference is the Why annotation
// traced runs add.
func TestTraceOutcomesBitIdentical(t *testing.T) {
	gpu := config.RTX2060()
	for _, tc := range []struct {
		app    string
		kernel string
		st     sim.Structure
	}{
		{"VA", "va_add", sim.StructRegFile},
		{"BP", "bp_forward", sim.StructShared}, // bp_adjust has no .smem: an all-masked point
		{"NW", "nw_diag", sim.StructL1D},
	} {
		app, err := bench.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := ProfileApp(nil, app, gpu)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(trace bool) *CampaignConfig {
			return &CampaignConfig{App: app, GPU: gpu, Kernel: tc.kernel, Structure: tc.st,
				Runs: 50, Bits: 1, Seed: 9, Workers: 4, Trace: trace}
		}
		plain, err := RunCampaign(nil, mk(false), prof)
		if err != nil {
			t.Fatalf("%s untraced: %v", tc.app, err)
		}
		traced, err := RunCampaign(nil, mk(true), prof)
		if err != nil {
			t.Fatalf("%s traced: %v", tc.app, err)
		}
		if plain.Counts != traced.Counts {
			t.Errorf("%s/%s: untraced %+v vs traced %+v",
				tc.app, tc.st, plain.Counts, traced.Counts)
		}
		if len(plain.Exps) != len(traced.Exps) {
			t.Fatalf("%s: %d untraced experiments vs %d traced", tc.app, len(plain.Exps), len(traced.Exps))
		}
		for i := range plain.Exps {
			p, tr := plain.Exps[i], traced.Exps[i]
			if p.Effect != tr.Effect || p.Cycles != tr.Cycles || p.Detail != tr.Detail || p.Injected != tr.Injected {
				t.Errorf("%s exp %d: untraced {%s %d %q %v} traced {%s %d %q %v}",
					tc.app, i, p.Effect, p.Cycles, p.Detail, p.Injected,
					tr.Effect, tr.Cycles, tr.Detail, tr.Injected)
			}
			if p.Why != "" {
				t.Errorf("%s exp %d: untraced run has Why=%q", tc.app, i, p.Why)
			}
			if tr.Why == "" {
				t.Errorf("%s exp %d: traced run missing Why", tc.app, i)
			}
		}
	}
}

// TestTraceBytesIdenticalAcrossEngines is the tracer's second contract:
// the trace itself is deterministic. For the same (seed, experiment index)
// the fork engine and the replay oracle must emit byte-identical trace JSON — the
// events hold only simulated state (cycles, PCs, cell names), never
// wall-clock or scheduling artifacts. It also checks the structural
// acceptance criterion: every non-masked outcome's trace carries an
// injection event and a classification event, and every trace ends with
// the classification.
func TestTraceBytesIdenticalAcrossEngines(t *testing.T) {
	gpu := config.RTX2060()
	app, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(run func(context.Context, *CampaignConfig, *Profile) (*CampaignResult, error)) map[int][]byte {
		out := map[int][]byte{}
		cfg := &CampaignConfig{App: app, GPU: gpu, Kernel: "va_add", Structure: sim.StructRegFile,
			Runs: 50, Bits: 1, Seed: 21, Workers: 4,
			Trace: true,
			Sink: func(exp Experiment) error {
				raw, err := json.Marshal(exp.Trace)
				if err != nil {
					return err
				}
				out[exp.ID] = raw
				return nil
			},
		}
		if _, err := run(nil, cfg, prof); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fork := collect(RunCampaign)
	replay := collect(replayCampaign)
	if len(fork) != 50 || len(replay) != 50 {
		t.Fatalf("trace counts: fork %d, replay %d, want 50", len(fork), len(replay))
	}
	for id, f := range fork {
		if r, ok := replay[id]; !ok {
			t.Errorf("experiment %d missing from replay traces", id)
		} else if !bytes.Equal(f, r) {
			t.Errorf("experiment %d trace differs:\nfork   %s\nreplay %s", id, f, r)
		}
	}
	for id, raw := range fork {
		var tr ExperimentTrace
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("experiment %d: %v", id, err)
		}
		if len(tr.Events) == 0 {
			t.Errorf("experiment %d: no events", id)
			continue
		}
		last := tr.Events[len(tr.Events)-1]
		if last.Ev != "classify" || last.Outcome != tr.Effect || last.Why != tr.Why {
			t.Errorf("experiment %d: final event %+v does not classify effect=%s why=%s",
				id, last, tr.Effect, tr.Why)
		}
		if tr.Effect == "Masked" {
			continue
		}
		hasInject := false
		for _, ev := range tr.Events {
			if ev.Ev == "inject" {
				hasInject = true
			}
		}
		if !hasInject {
			t.Errorf("experiment %d (%s): no inject event in %s", id, tr.Effect, raw)
		}
	}
}

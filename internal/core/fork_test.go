package core

import (
	"context"
	"errors"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// TestForkReplayIdentity pins the snapshot-and-fork engine to the
// full-replay oracle: for the same seed the two must produce bit-identical
// campaigns — same Counts and, per experiment, the same effect, cycle
// count, injection detail and injected flag — across benchmarks and target
// structures. This is the correctness contract that lets the fork engine
// be the only one that ships.
func TestForkReplayIdentity(t *testing.T) {
	gpu := config.RTX2060()
	for _, tc := range []struct {
		app    string
		kernel string
		st     sim.Structure
	}{
		{"VA", "va_add", sim.StructRegFile},
		{"BFS", "bfs_k1", sim.StructRegFile},
		{"BP", "bp_forward", sim.StructShared},
		{"NW", "nw_diag", sim.StructL1D},
		{"GE", "ge_fan2", sim.StructL2},
	} {
		app, err := bench.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := ProfileApp(nil, app, gpu)
		if err != nil {
			t.Fatal(err)
		}
		cfg := &CampaignConfig{App: app, GPU: gpu, Kernel: tc.kernel, Structure: tc.st,
			Runs: 30, Bits: 1, Seed: 11, Workers: 4}
		fork, err := RunCampaign(nil, cfg, prof)
		if err != nil {
			t.Fatalf("%s fork: %v", tc.app, err)
		}
		replay, err := replayCampaign(nil, cfg, prof)
		if err != nil {
			t.Fatalf("%s replay: %v", tc.app, err)
		}
		if fork.Counts != replay.Counts {
			t.Errorf("%s/%s/%s: fork %+v vs replay %+v", tc.app, tc.kernel, tc.st, fork.Counts, replay.Counts)
		}
		if len(fork.Exps) != len(replay.Exps) {
			t.Fatalf("%s: %d fork experiments vs %d replay", tc.app, len(fork.Exps), len(replay.Exps))
		}
		for i := range fork.Exps {
			f, l := fork.Exps[i], replay.Exps[i]
			if f.Effect != l.Effect || f.Cycles != l.Cycles || f.Detail != l.Detail || f.Injected != l.Injected {
				t.Errorf("%s exp %d: fork {%s %d %q %v} replay {%s %d %q %v}",
					tc.app, i, f.Effect, f.Cycles, f.Detail, f.Injected, l.Effect, l.Cycles, l.Detail, l.Injected)
			}
		}
	}
}

// TestWorkerCountInvariance checks that the worker pool size never leaks
// into results: one worker and eight workers must produce identical
// experiment lists for the same seed.
func TestWorkerCountInvariance(t *testing.T) {
	gpu := config.RTX2060()
	app, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *CampaignResult {
		res, err := RunCampaign(nil, &CampaignConfig{
			App: app, GPU: gpu, Kernel: "va_add", Structure: sim.StructRegFile,
			Runs: 40, Bits: 1, Seed: 7, Workers: workers,
		}, prof)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	one, eight := run(1), run(8)
	if one.Counts != eight.Counts {
		t.Errorf("workers=1 %+v vs workers=8 %+v", one.Counts, eight.Counts)
	}
	for i := range one.Exps {
		if one.Exps[i].Effect != eight.Exps[i].Effect || one.Exps[i].Cycles != eight.Exps[i].Cycles {
			t.Errorf("exp %d differs across worker counts", i)
		}
	}
}

// TestCampaignCancellation cancels a campaign from its own progress
// callback and expects a prompt return carrying the finished subset.
func TestCampaignCancellation(t *testing.T) {
	gpu := config.RTX2060()
	app, err := bench.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	res, err := RunCampaign(ctx, &CampaignConfig{
		App: app, GPU: gpu, Kernel: "bfs_k1", Structure: sim.StructRegFile,
		Runs: 300, Bits: 1, Seed: 3, Workers: 2,
		Progress: func(Experiment) {
			if seen++; seen == 5 {
				cancel()
			}
		},
	}, prof)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled campaign returned no partial result")
	}
	if n := res.Counts.Total(); n == 0 || n >= 300 {
		t.Errorf("partial result has %d experiments, want 0 < n < 300", n)
	}
	if len(res.Exps) != res.Counts.Total() {
		t.Errorf("%d experiments vs %d counted", len(res.Exps), res.Counts.Total())
	}
}

// TestValidateErrors exercises CampaignConfig.Validate's diagnostics.
func TestValidateErrors(t *testing.T) {
	app, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	titan := config.GTXTitan() // no L1D cache on the Kepler model
	base := func() *CampaignConfig {
		return &CampaignConfig{App: app, GPU: config.RTX2060(), Kernel: "va_add",
			Structure: sim.StructRegFile, Runs: 10, Bits: 1}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mut := range map[string]func(*CampaignConfig){
		"no app":          func(c *CampaignConfig) { c.App = nil },
		"no gpu":          func(c *CampaignConfig) { c.GPU = nil },
		"zero runs":       func(c *CampaignConfig) { c.Runs = 0 },
		"negative runs":   func(c *CampaignConfig) { c.Runs = -3 },
		"zero bits":       func(c *CampaignConfig) { c.Bits = 0 },
		"unknown kernel":  func(c *CampaignConfig) { c.Kernel = "nope" },
		"bad invocation":  func(c *CampaignConfig) { c.Invocation = -1 },
		"bad workers":     func(c *CampaignConfig) { c.Workers = -2 },
		"missing L1D":     func(c *CampaignConfig) { c.GPU, c.Structure = titan, sim.StructL1D },
		"empty structure": func(c *CampaignConfig) { c.Structure = sim.Structure(99) },
	} {
		cfg := base()
		mut(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", name)
		}
	}
	if _, err := RunCampaign(nil, &CampaignConfig{App: app, GPU: config.RTX2060(),
		Kernel: "nope", Structure: sim.StructRegFile, Runs: 5, Bits: 1}, nil); err == nil {
		t.Error("RunCampaign accepted an unknown kernel")
	}
}

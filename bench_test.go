// Tests of the public facade; example_test.go holds its runnable
// examples. The paper's tables and figures have one producer,
// cmd/gpufi-figures, and its test regenerates every committed snapshot of
// them.
package gpufi_test

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"gpufi"
)

// TestCampaignAPI exercises the public Campaign surface: the registries,
// functional options, validation, a precomputed profile, progress and trace
// callbacks (each experiment's trace before its progress call, whatever the
// order of the options), and cancellation with partial results.
func TestCampaignAPI(t *testing.T) {
	if len(gpufi.Apps()) != 12 || len(gpufi.Cards()) != 3 {
		t.Fatalf("%d apps and %d cards, want 12 and 3", len(gpufi.Apps()), len(gpufi.Cards()))
	}
	if n := gpufi.SampleSize(1e12, 0.99, 0.02); n < 4000 {
		t.Errorf("SampleSize = %d", n)
	}
	app, err := gpufi.AppByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	gpu := gpufi.RTX2060()
	if err := gpufi.NewCampaign(gpufi.WithTarget(app, gpu, "nope", gpufi.StructRegFile),
		gpufi.WithRuns(5)).Validate(); err == nil {
		t.Error("Validate accepted an unknown kernel")
	}
	prof, err := gpufi.Profile(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	var calls []string
	res, err := gpufi.NewCampaign(
		gpufi.WithTarget(app, gpu, "va_add", gpufi.StructRegFile),
		gpufi.WithRuns(8),
		gpufi.WithSeed(1),
		gpufi.WithWorkers(4),
		gpufi.WithProfile(prof),
		gpufi.WithProgress(func(e gpufi.Experiment) { calls = append(calls, fmt.Sprint("progress ", e.ID)) }),
		gpufi.WithTrace(func(tr gpufi.ExperimentTrace) error {
			calls = append(calls, fmt.Sprint("trace ", tr.ID))
			return nil
		}),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 8 || len(calls) != 16 {
		t.Fatalf("total=%d, %d callbacks, want 8 and 16", res.Counts.Total(), len(calls))
	}
	for k := 0; k < len(calls); k += 2 {
		var id int
		if _, err := fmt.Sscanf(calls[k], "trace %d", &id); err != nil || calls[k+1] != fmt.Sprint("progress ", id) {
			t.Errorf("callbacks %q, %q: want an experiment's trace, then its progress", calls[k], calls[k+1])
		}
	}
	// Cancelling from the progress callback returns promptly with the
	// finished subset.
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	c2 := gpufi.NewCampaign(
		gpufi.WithTarget(app, gpu, "va_add", gpufi.StructRegFile),
		gpufi.WithRuns(200),
		gpufi.WithSeed(9),
		gpufi.WithWorkers(2),
		gpufi.WithProgress(func(gpufi.Experiment) {
			if seen++; seen == 3 {
				cancel()
			}
		}),
	)
	res2, err := c2.Run(ctx)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res2 == nil || res2.Counts.Total() == 0 || res2.Counts.Total() >= 200 {
		t.Errorf("partial result: %+v", res2)
	}
}

// TestWithCompletedResumes drives the resume primitive: the even indices
// run, then the odd ones with the even ones marked completed, and the two
// halves merge into exactly the uninterrupted campaign.
func TestWithCompletedResumes(t *testing.T) {
	app, err := gpufi.AppByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	gpu := gpufi.RTX2060()
	prof, err := gpufi.Profile(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 40
	run := func(completed ...int) *gpufi.CampaignResult {
		t.Helper()
		res, err := gpufi.NewCampaign(
			gpufi.WithTarget(app, gpu, "bp_adjust", gpufi.StructRegFile),
			gpufi.WithRuns(runs), gpufi.WithSeed(5), gpufi.WithProfile(prof),
			gpufi.WithCompleted(completed...),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var even, odd []int
	for i := 0; i < runs; i++ {
		if i%2 == 0 {
			even = append(even, i)
		} else {
			odd = append(odd, i)
		}
	}
	full, first, second := run(), run(odd...), run(even...)
	merged := first.Counts
	merged.Merge(second.Counts)
	if merged != full.Counts || full.Counts.Failures() == 0 {
		t.Fatalf("halves %+v + %+v, uninterrupted %+v", first.Counts, second.Counts, full.Counts)
	}
	for _, half := range []*gpufi.CampaignResult{first, second} {
		if len(half.Exps) != runs/2 {
			t.Fatalf("a half ran %d experiments, want %d", len(half.Exps), runs/2)
		}
		for _, e := range half.Exps {
			if w := full.Exps[e.ID]; e.Effect != w.Effect || e.Cycle != w.Cycle || e.Cycles != w.Cycles {
				t.Errorf("experiment %d resumed as %+v, uninterrupted %+v", e.ID, e, w)
			}
		}
	}
}

// TestWithSimultaneous runs one of the paper's Table IV combination points,
// register file and shared memory struck in the same run, and refuses a
// partner structure the card does not have.
func TestWithSimultaneous(t *testing.T) {
	app, err := gpufi.AppByName("SP") // uses shared memory
	if err != nil {
		t.Fatal(err)
	}
	c := gpufi.NewCampaign(
		gpufi.WithTarget(app, gpufi.RTX2060(), "sp_dot", gpufi.StructRegFile),
		gpufi.WithSimultaneous(gpufi.StructShared),
		gpufi.WithRuns(20), gpufi.WithSeed(6),
	)
	if got := c.Config().Simultaneous; !reflect.DeepEqual(got, []gpufi.Structure{gpufi.StructShared}) {
		t.Fatalf("Simultaneous = %v", got)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 20 {
		t.Errorf("%d experiments of 20", res.Counts.Total())
	}
	if err := gpufi.NewCampaign(
		gpufi.WithTarget(app, gpufi.GTXTitan(), "sp_dot", gpufi.StructRegFile),
		gpufi.WithSimultaneous(gpufi.StructL1D), gpufi.WithRuns(20),
	).Validate(); err == nil {
		t.Error("an L1D partner on a card without an L1D was accepted")
	}
}

// TestParseGPUReadsPresetsBack: each preset reads back from its own text
// unchanged.
func TestParseGPUReadsPresetsBack(t *testing.T) {
	for _, p := range gpufi.Cards() {
		got, err := gpufi.ParseGPU(strings.NewReader(p.Marshal()))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("%s reads back as %+v, want %+v", p.Name, got, p)
		}
	}
}

// TestEveryOptionHasARow holds the facade's options to a row each: a row
// applies its option and checks that it took, through Config() or the
// callback it installs. A With* function of campaign.go with no row fails.
func TestEveryOptionHasARow(t *testing.T) {
	app, err := gpufi.AppByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	gpu := gpufi.RTX2060()
	config := func(o gpufi.CampaignOption) gpufi.CampaignConfig { return gpufi.NewCampaign(o).Config() }
	rows := map[string]func() bool{
		"WithTarget": func() bool {
			cfg := config(gpufi.WithTarget(app, gpu, "va_add", gpufi.StructShared))
			return cfg.App == app && cfg.GPU == gpu && cfg.Kernel == "va_add" && cfg.Structure == gpufi.StructShared
		},
		"WithRuns":       func() bool { return config(gpufi.WithRuns(7)).Runs == 7 },
		"WithWorkers":    func() bool { return config(gpufi.WithWorkers(3)).Workers == 3 },
		"WithSeed":       func() bool { return config(gpufi.WithSeed(9)).Seed == 9 },
		"WithInvocation": func() bool { return config(gpufi.WithInvocation(2)).Invocation == 2 },
		"WithCompleted": func() bool {
			return reflect.DeepEqual(config(gpufi.WithCompleted(1, 3)).Completed, []int{1, 3})
		},
		"WithSimultaneous": func() bool {
			return reflect.DeepEqual(config(gpufi.WithSimultaneous(gpufi.StructL1D)).Simultaneous,
				[]gpufi.Structure{gpufi.StructL1D})
		},
		"WithProgress": func() bool {
			got := -1
			config(gpufi.WithProgress(func(e gpufi.Experiment) { got = e.ID })).Sink(gpufi.Experiment{ID: 4})
			return got == 4
		},
		"WithTrace": func() bool {
			got := -1
			cfg := config(gpufi.WithTrace(func(tr gpufi.ExperimentTrace) error { got = tr.ID; return nil }))
			return cfg.Trace && cfg.Sink(gpufi.Experiment{Trace: &gpufi.ExperimentTrace{ID: 5}}) == nil && got == 5
		},
		"WithProfile": func() bool {
			prof := &gpufi.AppProfile{}
			got, err := gpufi.NewCampaign(gpufi.WithProfile(prof)).Profile(context.Background())
			return err == nil && got == prof
		},
	}
	for name, took := range rows {
		if !took() {
			t.Errorf("%s did not take", name)
		}
	}
	f, err := parser.ParseFile(token.NewFileSet(), "campaign.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") && rows[fn.Name.Name] == nil {
			t.Errorf("gpufi.%s has no row", fn.Name.Name)
		}
	}
}

// Tests of the public facade; example_test.go holds its runnable
// examples. The paper's tables and figures have one producer,
// cmd/gpufi-figures, and its test regenerates every committed snapshot of
// them.
package gpufi_test

import (
	"context"
	"errors"
	"testing"

	"gpufi"
)

// TestCampaignAPI exercises the public Campaign surface: the registries,
// functional options, validation, a precomputed profile, progress
// callbacks, and cancellation with partial results.
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
	done := 0
	res, err := gpufi.NewCampaign(
		gpufi.WithTarget(app, gpu, "va_add", gpufi.StructRegFile),
		gpufi.WithRuns(8),
		gpufi.WithSeed(1),
		gpufi.WithWorkers(4),
		gpufi.WithProfile(prof),
		gpufi.WithProgress(func(gpufi.Experiment) { done++ }),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 8 || done != 8 {
		t.Errorf("total=%d progress=%d, want 8/8", res.Counts.Total(), done)
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

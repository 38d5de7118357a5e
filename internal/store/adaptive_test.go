package store

import (
	"context"
	"errors"
	"io"
	"sort"
	"strings"
	"testing"

	"gpufi/internal/core"
	"gpufi/internal/plan"
)

// journalLines returns a campaign's journal lines, sorted: the records, not
// the completion order they were written in.
func journalLines(t *testing.T, st *Store, id string) []string {
	t.Helper()
	f, err := st.OpenLog(id)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	sort.Strings(lines)
	return lines
}

// TestAdaptiveResumeWalksTheSameRounds cancels a library adaptive campaign
// in the middle of its first round, resumes it through Run and cancels it
// again exactly at the end of that round, then resumes it to the end: the
// journal holds what an uninterrupted Run journals, and the plan report is
// the uninterrupted one, because the journaled outcomes fold into the rounds
// they belong to.
func TestAdaptiveResumeWalksTheSameRounds(t *testing.T) {
	spec := vaSpec(200, 5)
	spec.Workers = 1 // a cancel from the progress hook lands on that very record
	spec.Plan = &plan.Rule{TargetCI: 0.12, Confidence: 0.95, MinRuns: 40}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileApp(nil, cfg.App, cfg.GPU)
	if err != nil {
		t.Fatal(err)
	}
	sched, analytic, err := core.NewSchedule(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	first := len(sched.Next())
	if len(analytic) == 0 || first == 0 {
		t.Fatalf("the fixture has %d analytic records and a first round of %d", len(analytic), first)
	}

	ref, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := runCampaign(context.Background(), ref, "a", spec, prof, nil)
	if err != nil {
		t.Fatal(err)
	}

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []int{len(analytic) + first/2, len(analytic) + first} {
		n := 0
		if info, err := st.Inspect("a"); err == nil {
			n = info.Completed
		}
		ctx, cancel := context.WithCancel(context.Background())
		_, err := runCampaign(ctx, st, "a", spec, prof, func(core.Experiment) {
			if n++; n == stop {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run cancelled at record %d: %v", stop, err)
		}
		if info, err := st.Inspect("a"); err != nil || info.Completed != stop {
			t.Fatalf("cancelled at record %d, the journal holds %+v (%v)", stop, info, err)
		}
	}
	got, err := runCampaign(context.Background(), st, "a", spec, prof, nil)
	if err != nil {
		t.Fatal(err)
	}

	if got.Plan == nil || *got.Plan != *want.Plan || got.Counts != want.Counts {
		t.Errorf("resumed campaign: plan %+v, counts %+v; uninterrupted: plan %+v, counts %+v",
			got.Plan, got.Counts, want.Plan, want.Counts)
	}
	a, b := journalLines(t, st, "a"), journalLines(t, ref, "a")
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("the resumed journal's %d lines differ from the uninterrupted journal's %d", len(a), len(b))
	}
}

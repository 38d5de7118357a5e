package shard_test

import (
	"context"
	"testing"
	"time"

	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// TestInProcessWorkersWake holds the wake of in-process workers without
// timing anything: their poll and backoff are an hour, so a worker that
// waited them out instead of waking when the coordinator plans a generation
// would hang the test. The workers are idle before the campaign exists, so
// only the wake can start it. Two campaigns: a multi-round adaptive one,
// which must also journal what the library journals, record for record;
// and a fixed-N one planned while another campaign is marked recovering,
// which answers the idle workers' claims with ErrRecovering, not ErrNoWork.
func TestInProcessWorkersWake(t *testing.T) {
	defer shard.SetBackoff(time.Hour, time.Hour)()
	for _, tc := range []struct {
		name       string
		spec       store.Spec
		recovering string // a campaign id marked recovering before the run
	}{
		{"adaptive rounds", adaptiveFixture, ""},
		{"beside a recovering campaign", store.Spec{App: "VA", GPU: "RTX2060", Kernel: "va_add",
			Structure: "regfile", Runs: 40, Seed: 3, Workers: 1}, "elsewhere"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			co := shard.NewCoordinator(st, shard.Options{ShardsPerCampaign: 4})
			if tc.recovering != "" {
				co.MarkRecovering(tc.recovering)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var stopped []chan struct{}
			for _, name := range []string{"p1", "p2"} {
				w := &shard.Worker{Coordinator: co, Name: name, BatchSize: 8, Poll: time.Hour}
				done := make(chan struct{})
				go func() { defer close(done); w.Run(ctx) }()
				stopped = append(stopped, done)
			}
			defer func() {
				cancel()
				for _, done := range stopped {
					<-done
				}
			}()

			res, err := co.Run(context.Background(), "wake", tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.spec.Plan == nil && res.Counts.Total() != tc.spec.Runs {
				t.Errorf("counted %d of %d experiments", res.Counts.Total(), tc.spec.Runs)
			}
			if tc.spec.Plan == nil {
				return
			}
			if gens := generations(t, st, "wake"); gens < 2 {
				t.Errorf("adaptive campaign planned %d generations, want a multi-round one", gens)
			}
			got, _ := journalRecords(t, st, "wake")
			want, _, lib := library(t, tc.spec)
			if len(got) != len(want) {
				t.Errorf("journaled %d records, the library %d", len(got), len(want))
			}
			for k, w := range want {
				if string(got[k]) != string(w) {
					t.Errorf("record %s: %s, the library's %s", k, got[k], w)
				}
			}
			info, err := st.Inspect("wake")
			if err != nil {
				t.Fatal(err)
			}
			samePlan(t, tc.name, info, lib.Plan)
		})
	}
}

// generations counts the shard generations a campaign's control log
// completed.
func generations(t *testing.T, st *store.Store, id string) int {
	t.Helper()
	ctl, _, wal, err := st.OpenControlWAL(id)
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	n := 0
	for _, r := range ctl {
		if r.Kind == store.CtlPlanDone {
			n++
		}
	}
	return n
}

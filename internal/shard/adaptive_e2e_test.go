package shard_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/plan"
	"gpufi/internal/store"
)

// adaptiveFixture is the VA point the adaptive tests share: both strata,
// and a rule that stops well before the 200-run ceiling.
var adaptiveFixture = store.Spec{
	App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile", Runs: 200, Seed: 5, Workers: 2,
	Plan: &plan.Rule{TargetCI: 0.12, Confidence: 0.95, MinRuns: 40},
}

// submitSpec POSTs spec under id.
func submitSpec(t *testing.T, base, id string, spec store.Spec) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	body["id"] = id
	submit(t, base, body)
}

// samePlan compares a finished campaign's plan report with the library's,
// field for field.
func samePlan(t *testing.T, label string, sharded *store.Info, lib *core.PlanReport) {
	t.Helper()
	switch {
	case (sharded.Plan == nil) != (lib == nil):
		t.Errorf("%s: plan report %+v, the library's %+v", label, sharded.Plan, lib)
	case sharded.Plan != nil && *sharded.Plan != *lib:
		t.Errorf("%s: plan report\n  sharded: %+v\n  library: %+v", label, *sharded.Plan, *lib)
	}
}

// TestShardedAdaptiveMatchesLibrary is the one-procedure gate: the
// coordinator plans each round of the library's schedule as a shard
// generation, so a sharded adaptive campaign journals what the library
// (core.RunCampaign) journals, record for record, and finishes with the same plan report —
// whatever the shard count, whatever order the batches arrive in. Three
// specs: the VA point with both strata, a cache point with no analytic
// stratum, and a point whose structure the kernel does not have. Each runs
// at three shard counts, so every spec is journaled three times, each time
// the same set.
func TestShardedAdaptiveMatchesLibrary(t *testing.T) {
	cache := store.Spec{App: "BP", GPU: "RTX2060", Kernel: "bp_adjust", Structure: "l1d", Runs: 300, Seed: 5,
		Workers: 2, Plan: &plan.Rule{TargetCI: 0.1, Confidence: 0.95, MinRuns: 40}}
	absent := store.Spec{App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "shared", Runs: 60, Seed: 5,
		Workers: 2, Plan: &plan.Rule{TargetCI: 0.1}}
	specs := []struct {
		name string
		spec store.Spec
	}{{"va-regfile", adaptiveFixture}, {"bp-l1d", cache}, {"va-shared-absent", absent}}

	type libRun struct {
		recs map[string][]byte
		plan *core.PlanReport
	}
	libs := map[string]libRun{}
	for _, s := range specs {
		recs, _, res := library(t, s.spec)
		libs[s.name] = libRun{recs, res.Plan}
	}
	if p := libs["va-regfile"].plan; p == nil || p.Analytic == 0 || p.Skipped == 0 {
		t.Fatalf("the VA fixture no longer stops early with both strata: %+v", p)
	}
	if p := libs["bp-l1d"].plan; p == nil || p.Analytic != 0 || p.Skipped == 0 {
		t.Fatalf("the cache point no longer stops early without an analytic stratum: %+v", p)
	}
	if p := libs["va-shared-absent"].plan; p != nil {
		t.Fatalf("an absent structure got a plan report: %+v", p)
	}

	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			c := startCluster(t, t.TempDir(), shards, time.Minute)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			startWorker(ctx, c, "w1", 5, nil)
			startWorker(ctx, c, "w2", 3, nil)
			for _, s := range specs {
				submitSpec(t, c.ts.URL, s.name, s.spec)
			}
			for _, s := range specs {
				waitDone(t, c.ts.URL, s.name, 2*time.Minute)
				sharded, dups := journalRecords(t, c.st, s.name)
				if dups != 0 {
					t.Errorf("%s: %d duplicate exp records", s.name, dups)
				}
				diffJournals(t, s.name, sharded, libs[s.name].recs)
				info, err := c.st.Inspect(s.name)
				if err != nil {
					t.Fatal(err)
				}
				samePlan(t, s.name, info, libs[s.name].plan)
			}
		})
	}
}

// TestShardedAdaptiveConvergence drives the VA fixture through the full
// distributed stack and reads it the way a client does: the journal and the
// /v1 status's plan report are the library run's, the last SSE progress
// event's ci_half_width is the report's half_width, and /metrics counts the
// campaign and the experiments its early stop saved.
func TestShardedAdaptiveConvergence(t *testing.T) {
	c := startCluster(t, t.TempDir(), 4, time.Minute)
	const id = "adaptive-e2e"
	submitSpec(t, c.ts.URL, id, adaptiveFixture)
	events, err := http.Get(c.ts.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	// The stream is read as it comes, up to the terminal event: last is the
	// ci_half_width of the last progress event.
	last, read := -1.0, make(chan error, 1)
	go func() {
		defer events.Body.Close()
		sc := bufio.NewScanner(events.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for name := ""; sc.Scan() && name != "done"; {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && name == "progress":
				var data struct {
					HalfWidth float64 `json:"ci_half_width"`
				}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &data); err != nil {
					read <- err
					return
				}
				last = data.HalfWidth
			}
		}
		read <- sc.Err()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w1 := startWorker(ctx, c, "w1", 5, nil)
	w2 := startWorker(ctx, c, "w2", 5, nil)
	waitDone(t, c.ts.URL, id, 2*time.Minute)
	if err := <-read; err != nil {
		t.Fatal(err)
	}

	sharded, dups := journalRecords(t, c.st, id)
	if dups != 0 {
		t.Fatalf("journal has %d duplicate exp records", dups)
	}
	libRecs, _, lib := library(t, adaptiveFixture)
	diffJournals(t, id, sharded, libRecs)
	t.Logf("journaled %d of %d experiments, as the library run does", len(sharded)-1, adaptiveFixture.Runs)

	var st struct {
		State string          `json:"state"`
		Plan  json.RawMessage `json:"plan"`
	}
	resp, err := http.Get(c.ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want, _ := json.Marshal(lib.Plan)
	if string(st.Plan) != string(want) {
		t.Fatalf("status plan report %s, the library's %s", st.Plan, want)
	}
	if !lib.Plan.Satisfied || lib.Plan.Skipped == 0 {
		t.Fatalf("the fixture no longer stops early: %+v", lib.Plan)
	}
	if last != lib.Plan.HalfWidth {
		t.Errorf("last progress event's ci_half_width %v, the report's half_width %v", last, lib.Plan.HalfWidth)
	}

	var snap map[string]any
	resp, err = http.Get(c.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v, _ := snap["plan_campaigns_satisfied"].(float64); v != 1 {
		t.Errorf("plan_campaigns_satisfied = %v, want 1", snap["plan_campaigns_satisfied"])
	}
	if v, _ := snap["plan_experiments_saved"].(float64); v != float64(lib.Plan.Skipped) {
		t.Errorf("plan_experiments_saved = %v, want the report's %d", snap["plan_experiments_saved"], lib.Plan.Skipped)
	}

	// Workers exit their loops cleanly: a round is just more shards.
	cancel()
	for _, done := range []chan struct{}{w1, w2} {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit after cancel")
		}
	}
}

package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gpufi/internal/store"
)

// TestServiceAdaptiveCampaign runs a local (non-sharded) adaptive campaign
// through the HTTP surface: the SSE progress events must carry the running
// interval half-width and the analytic pre-pass count, the last one the
// very half-width the planner reports, and the terminal status must attach
// the planner's stratified report with a real saving.
func TestServiceAdaptiveCampaign(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 2})
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sub := postCampaign(t, ts.URL,
		`{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":200,"seed":5,"workers":2,"plan":{"target_ci":0.12,"confidence":0.95,"min_runs":40}}`)
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp, func(ev sseEvent) bool { return ev.name == "done" })

	// Every progress event on an adaptive campaign reports the planner's
	// live half-width and the analytic count alongside the tally.
	var sawHalfWidth, sawAnalytic bool
	last := -1.0
	for _, ev := range events {
		if ev.name != "progress" {
			continue
		}
		var data map[string]any
		if err := json.Unmarshal(ev.data, &data); err != nil {
			t.Fatal(err)
		}
		if hw, ok := data["ci_half_width"].(float64); ok && hw > 0 {
			sawHalfWidth = true
			last = hw
		}
		if an, ok := data["analytic"].(float64); ok && an > 0 {
			sawAnalytic = true
		}
	}
	if !sawHalfWidth {
		t.Error("no progress event carried a positive ci_half_width")
	}
	if !sawAnalytic {
		t.Error("no progress event carried a positive analytic count")
	}

	var got status
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+sub.ID, &got); code != 200 {
		t.Fatalf("status code %d", code)
	}
	if got.State != StateDone {
		t.Fatalf("terminal state %q: %+v", got.State, got)
	}
	rep := got.Plan
	if rep == nil || !rep.Satisfied {
		t.Fatalf("terminal status has no satisfied plan report: %+v", rep)
	}
	if rep.Skipped == 0 {
		t.Errorf("adaptive campaign saved nothing: %+v", rep)
	}
	if rep.HalfWidth > rep.TargetCI {
		t.Errorf("half-width %f above target %f", rep.HalfWidth, rep.TargetCI)
	}
	if last != rep.HalfWidth || got.CIHalfWidth != rep.HalfWidth {
		t.Errorf("live half-width %v after the last record, %v on the status; the planner reports %v",
			last, got.CIHalfWidth, rep.HalfWidth)
	}
	if got.Analytic != rep.Analytic {
		t.Errorf("status analytic %d != report analytic %d", got.Analytic, rep.Analytic)
	}
	if rep.Analytic+rep.Simulated+rep.Skipped != 200 {
		t.Errorf("accounting: %d+%d+%d != 200", rep.Analytic, rep.Simulated, rep.Skipped)
	}
	if got.Completed != rep.Analytic+rep.Simulated {
		t.Errorf("completed %d, want analytic %d + simulated %d",
			got.Completed, rep.Analytic, rep.Simulated)
	}

	// The planner metrics reflect the satisfied campaign and its saving.
	var m map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics code %d", code)
	}
	if m["plan_campaigns_satisfied"].(float64) < 1 {
		t.Errorf("plan_campaigns_satisfied: %+v", m["plan_campaigns_satisfied"])
	}
	if m["plan_experiments_saved"].(float64) < 1 {
		t.Errorf("plan_experiments_saved: %+v", m["plan_experiments_saved"])
	}

	// The report survives a restart: the next service lifetime knows the
	// campaign only from the store, whose done record carries it.
	ts.Close()
	srv.Close()
	srv2 := New(st, Options{Workers: 1})
	if _, err := srv2.Start(nil); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var stored status
	if code := getJSON(t, ts2.URL+"/v1/campaigns/"+sub.ID, &stored); code != 200 {
		t.Fatalf("status code %d after restart", code)
	}
	if stored.State != StateDone || stored.Plan == nil || *stored.Plan != *rep {
		t.Errorf("after restart: state %q, plan %+v; want done with %+v", stored.State, stored.Plan, rep)
	}
}

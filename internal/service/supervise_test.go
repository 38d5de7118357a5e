package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/sim"
	"gpufi/internal/store"
)

// collectUntilFinished drains a white-box subscription until the job's
// finished channel closes, then drains whatever is still buffered. The
// subscription must be attached before the worker pool starts, which is
// what makes these tests sleep-free and race-free.
func collectUntilFinished(ch chan event, fin chan struct{}) []event {
	var events []event
	for {
		select {
		case ev := <-ch:
			events = append(events, ev)
		case <-fin:
			for {
				select {
				case ev := <-ch:
					events = append(events, ev)
					continue
				default:
				}
				return events
			}
		}
	}
}

// subscribeByID attaches to a job before Start so no event can be missed.
func subscribeByID(t *testing.T, srv *Server, id string) (chan event, chan struct{}) {
	t.Helper()
	srv.mu.Lock()
	j, ok := srv.jobs[id]
	srv.mu.Unlock()
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	ch, _, fin := srv.subscribe(j)
	return ch, fin
}

// TestWorkerSurvivesJobPanics is the supervision acceptance test: a job
// whose first three attempts panic inside the worker must be retried with
// backoff and still complete — the service process never dies, the worker
// pool never shrinks, and a subsequent campaign runs normally.
func TestWorkerSurvivesJobPanics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1, MaxRetries: 3, RetryBaseDelay: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var flakyID string
	testJobHook = func(id string, attempt int) {
		if id == flakyID && attempt <= 3 {
			panic(fmt.Sprintf("injected worker bug, attempt %d", attempt))
		}
	}
	defer func() { testJobHook = nil }()
	defer srv.Close() // runs before the hook reset above

	sub := postCampaign(t, ts.URL,
		`{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":8,"seed":31,"workers":2}`)
	flakyID = sub.ID
	ch, fin := subscribeByID(t, srv, sub.ID)
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}

	events := collectUntilFinished(ch, fin)
	retries := 0
	for _, ev := range events {
		if ev.name == "retry" {
			retries++
		}
	}
	if retries != 3 {
		t.Errorf("saw %d retry events, want 3", retries)
	}

	var final status
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+sub.ID, &final); code != 200 {
		t.Fatalf("status code %d", code)
	}
	if final.State != StateDone || final.Counts.Total() != 8 {
		t.Fatalf("flaky job final state: %+v", final)
	}
	if final.Attempts != 4 {
		t.Errorf("attempts = %d, want 4 (1 success after 3 panics)", final.Attempts)
	}

	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if m["job_retries"].(float64) != 3 || m["worker_panics"].(float64) < 3 {
		t.Errorf("metrics after survival: retries=%v panics=%v", m["job_retries"], m["worker_panics"])
	}

	// The pool is still alive: a second campaign (whose attempts the hook
	// leaves alone) runs to completion on the same worker.
	again := postCampaign(t, ts.URL,
		`{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":4,"seed":32,"workers":2}`)
	ch2, fin2 := subscribeByID(t, srv, again.ID)
	collectUntilFinished(ch2, fin2)
	var second status
	getJSON(t, ts.URL+"/v1/campaigns/"+again.ID, &second)
	if second.State != StateDone || second.Counts.Total() != 4 {
		t.Errorf("campaign after panics: %+v", second)
	}
}

// TestRetryBudgetExhausted: a job that panics on every attempt must land
// in StateFailed with a reason naming the panic and the attempt count —
// never loop forever, never kill the server.
func TestRetryBudgetExhausted(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1, MaxRetries: 2, RetryBaseDelay: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	testJobHook = func(id string, attempt int) { panic("hopeless") }
	defer func() { testJobHook = nil }()
	defer srv.Close()

	sub := postCampaign(t, ts.URL,
		`{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":5,"seed":41,"workers":2}`)
	_, fin := subscribeByID(t, srv, sub.ID)
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	<-fin

	var final status
	getJSON(t, ts.URL+"/v1/campaigns/"+sub.ID, &final)
	if final.State != StateFailed || final.Attempts != 3 {
		t.Fatalf("exhausted job: %+v, want failed after 3 attempts", final)
	}
	if !strings.Contains(final.Error, "campaign panicked: hopeless") ||
		!strings.Contains(final.Error, "attempt 3 of 3") {
		t.Errorf("failure reason %q lacks panic and attempt diagnosis", final.Error)
	}
	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if m["jobs_failed"].(float64) != 1 || m["job_retries"].(float64) != 2 {
		t.Errorf("metrics: failed=%v retries=%v", m["jobs_failed"], m["job_retries"])
	}
}

// TestQuarantineEventAndMetrics: an experiment-level panic inside a
// service-run campaign surfaces as a "quarantine" SSE event and in the
// /metrics counters, while the campaign itself still completes.
func TestQuarantineEventAndMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	prev := core.SetExperimentHook(func(id int, _ *sim.FaultSpec) {
		if id == 5 {
			panic("poison spec in service")
		}
	})
	defer core.SetExperimentHook(prev)
	defer srv.Close()

	sub := postCampaign(t, ts.URL,
		`{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":12,"seed":51,"workers":2}`)
	ch, fin := subscribeByID(t, srv, sub.ID)
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}

	events := collectUntilFinished(ch, fin)
	quarantines := 0
	for _, ev := range events {
		if ev.name == "quarantine" {
			quarantines++
			data := fmt.Sprint(ev.data)
			if !strings.Contains(data, "simulator panic") {
				t.Errorf("quarantine event lacks diagnosis: %v", ev.data)
			}
		}
	}
	if quarantines != 1 {
		t.Errorf("saw %d quarantine events, want 1", quarantines)
	}

	var final status
	getJSON(t, ts.URL+"/v1/campaigns/"+sub.ID, &final)
	if final.State != StateDone || final.Counts.Total() != 12 {
		t.Fatalf("poisoned campaign: %+v", final)
	}
	if final.Counts.Crash < 1 {
		t.Errorf("counts %+v lack the quarantined Crash", final.Counts)
	}
	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if m["experiments_quarantined"].(float64) != 1 {
		t.Errorf("experiments_quarantined = %v, want 1", m["experiments_quarantined"])
	}
	if m["exp_panics"].(float64) < 1 {
		t.Errorf("exp_panics = %v, want >= 1", m["exp_panics"])
	}
}

// TestHealthReadyDrain drives the probe endpoints through the lifecycle:
// not-ready before Start, ready while serving, unready during drain (with
// submissions refused), and a Drain that finishes the running campaign
// before shutting the pool down.
func TestHealthReadyDrain(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Errorf("healthz before Start: %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 503 {
		t.Errorf("readyz before Start: %d, want 503", code)
	}
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 200 {
		t.Errorf("readyz after Start: %d", code)
	}

	sub := postCampaign(t, ts.URL,
		`{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":60,"seed":61,"workers":2}`)
	srv.BeginDrain()
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 503 {
		t.Errorf("readyz while draining: %d, want 503", code)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(
		`{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":5,"seed":62}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: %d, want 503", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain cut short: %v", err)
	}
	var final status
	getJSON(t, ts.URL+"/v1/campaigns/"+sub.ID, &final)
	if final.State != StateDone || final.Counts.Total() != 60 {
		t.Errorf("campaign after graceful drain: %+v, want done with 60 experiments", final)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 503 {
		t.Errorf("readyz after drain: %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Errorf("healthz after drain: %d (liveness must survive drain)", code)
	}
}

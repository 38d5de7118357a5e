package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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

// logBuffer is a Logger sink the runner and the test may use at once.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// records decodes every JSON log record written so far.
func (b *logBuffer) records(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	dec := json.NewDecoder(bytes.NewReader(b.buf.Bytes()))
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// TestJobPanicFailsOnce: a job that panics runs once and fails, and the
// runner goes on. Its reason names the panic and nothing more (the status
// is served over HTTP), its stack is logged once, nothing retries it, and
// the next campaign and a drain go through the same runner as usual.
func TestJobPanicFailsOnce(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	logs := new(logBuffer)
	srv := New(st, Options{Workers: 1, Logger: slog.New(slog.NewJSONHandler(logs, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var hookRuns atomic.Int32
	testJobHook = func(id string) {
		if id == "panicky" {
			hookRuns.Add(1)
			panic("injected job bug")
		}
	}
	defer func() { testJobHook = nil }()
	defer srv.Close() // runs before the hook reset above

	postCampaign(t, ts.URL, `{"id":"panicky","app":"VA","gpu":"RTX2060","kernel":"va_add",`+
		`"structure":"regfile","runs":8,"seed":31,"workers":2}`)
	ch, fin := subscribeByID(t, srv, "panicky")
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	events := collectUntilFinished(ch, fin)

	// (i) It fails once, with the panic's value as its reason.
	var final status
	getJSON(t, ts.URL+"/v1/campaigns/panicky", &final)
	if final.State != StateFailed || final.Error != "campaign panicked: injected job bug" {
		t.Errorf("(i) panicking job: state %q, reason %q; want failed, \"campaign panicked: injected job bug\"",
			final.State, final.Error)
	}
	// (ii) The hook ran once, and nothing announced a retry.
	if n := hookRuns.Load(); n != 1 {
		t.Errorf("(ii) the job ran %d times, want 1", n)
	}
	for _, ev := range events {
		if ev.name != "state" {
			t.Errorf("(ii) unexpected %q event: %v", ev.name, ev.data)
		}
	}
	// (iii) Its stack is logged once, and it reaches down to the hook.
	var panicked []map[string]any
	for _, rec := range logs.records(t) {
		if rec["msg"] == "job panicked" {
			panicked = append(panicked, rec)
		}
	}
	if len(panicked) != 1 {
		t.Errorf("(iii) %d \"job panicked\" log records, want 1", len(panicked))
	} else if rec := panicked[0]; rec["id"] != "panicky" || rec["panic"] != "injected job bug" ||
		!strings.Contains(fmt.Sprint(rec["stack"]), "TestJobPanicFailsOnce.func") {
		t.Errorf("(iii) log record %v: want the job's id, the panic and a stack through the test's hook", rec)
	}
	// (iv) One panic, one failed job.
	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if m["worker_panics"] != 1.0 || m["jobs_failed"] != 1.0 {
		t.Errorf("(iv) worker_panics %v, jobs_failed %v; want 1 and 1", m["worker_panics"], m["jobs_failed"])
	}

	// (v) The same runner completes the next campaign.
	next := postCampaign(t, ts.URL,
		`{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":4,"seed":32,"workers":2}`)
	ch2, fin2 := subscribeByID(t, srv, next.ID)
	collectUntilFinished(ch2, fin2)
	var second status
	getJSON(t, ts.URL+"/v1/campaigns/"+next.ID, &second)
	if second.State != StateDone || second.Counts.Total() != 4 {
		t.Errorf("(v) campaign after the panic: %+v", second)
	}

	// (vi) Nothing is left pending: a drain returns at once.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Errorf("(vi) drain after the panic: %v", err)
	}
}

// TestWorkerSurvivesJobPanics: a lone runner that hits three panicking
// jobs in a row fails each of them and still runs the campaign queued
// behind them — the process never dies and the pool never shrinks.
func TestWorkerSurvivesJobPanics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	testJobHook = func(id string) {
		if strings.HasPrefix(id, "flaky-") {
			panic("injected worker bug in " + id)
		}
	}
	defer func() { testJobHook = nil }()
	defer srv.Close() // runs before the hook reset above

	for i := 1; i <= 3; i++ {
		postCampaign(t, ts.URL, fmt.Sprintf(`{"id":"flaky-%d","app":"VA","gpu":"RTX2060",`+
			`"kernel":"va_add","structure":"regfile","runs":8,"seed":%d,"workers":2}`, i, 30+i))
	}
	last := postCampaign(t, ts.URL,
		`{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":4,"seed":32,"workers":2}`)
	_, fin := subscribeByID(t, srv, last.ID)
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	<-fin

	for i := 1; i <= 3; i++ {
		var flaky status
		getJSON(t, fmt.Sprintf("%s/v1/campaigns/flaky-%d", ts.URL, i), &flaky)
		want := fmt.Sprintf("campaign panicked: injected worker bug in flaky-%d", i)
		if flaky.State != StateFailed || flaky.Error != want {
			t.Errorf("flaky-%d: state %q, reason %q; want failed, %q", i, flaky.State, flaky.Error, want)
		}
	}
	var final status
	getJSON(t, ts.URL+"/v1/campaigns/"+last.ID, &final)
	if final.State != StateDone || final.Counts.Total() != 4 {
		t.Errorf("campaign behind the panics: %+v", final)
	}
	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if m["worker_panics"] != 3.0 || m["jobs_failed"] != 3.0 || m["jobs_done"] != 1.0 {
		t.Errorf("metrics: worker_panics %v, jobs_failed %v, jobs_done %v; want 3, 3, 1",
			m["worker_panics"], m["jobs_failed"], m["jobs_done"])
	}
}

// TestRetryBudgetExhausted: the service keeps no retry budget of its own,
// so a job that panics on every run is spent after one run. The retry left
// is the client's: resubmitting the failed id runs it once more, and it
// fails once more — it never loops and never kills the server.
func TestRetryBudgetExhausted(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var hookRuns atomic.Int32
	testJobHook = func(id string) {
		hookRuns.Add(1)
		panic("hopeless")
	}
	defer func() { testJobHook = nil }()
	defer srv.Close()

	const spec = `{"id":"hopeless","app":"VA","gpu":"RTX2060","kernel":"va_add",` +
		`"structure":"regfile","runs":5,"seed":41,"workers":2}`
	postCampaign(t, ts.URL, spec)
	_, fin := subscribeByID(t, srv, "hopeless")
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		<-fin
		var final status
		getJSON(t, ts.URL+"/v1/campaigns/hopeless", &final)
		if final.State != StateFailed || final.Error != "campaign panicked: hopeless" {
			t.Fatalf("run %d: state %q, reason %q; want failed, \"campaign panicked: hopeless\"",
				run, final.State, final.Error)
		}
		if n := hookRuns.Load(); n != int32(run) {
			t.Errorf("after submission %d the job ran %d times, want %d", run, n, run)
		}
		var m map[string]any
		getJSON(t, ts.URL+"/metrics", &m)
		if m["jobs_failed"] != float64(run) {
			t.Errorf("after submission %d: jobs_failed %v, want %d", run, m["jobs_failed"], run)
		}
		if run == 1 {
			postCampaign(t, ts.URL, spec)
			_, fin = subscribeByID(t, srv, "hopeless")
		}
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

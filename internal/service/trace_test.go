package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/store"
)

// This file covers the service-side tracing contract in local mode: every
// campaign gets a root trace at submission, the SSE stream's terminal
// event carries it, the /trace endpoint serves the span timeline in both
// formats, and the HTTP middleware counts requests per route class.

// newRunningServer is newAPIServer plus a started worker pool, for tests
// that need campaigns to actually execute.
func newRunningServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1})
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// phaseSums is what the engine's three phase histograms hold, in ns.
func phaseSums() [3]int64 {
	st := core.EngineStats()
	return [3]int64{st.ForkNanos, st.ExecuteNanos, st.ClassifyNanos}
}

// checkClusterSpans holds a campaign's engine.cluster spans to the campaign:
// their experiments sum to want, the experiments it simulated, and their
// fork_ns, execute_ns and classify_ns to what the phase histograms gained
// since before, within 1 µs in all: both sum the same durations, and only
// round differently.
func checkClusterSpans(t *testing.T, recs []obs.SpanRecord, before [3]int64, want int) {
	t.Helper()
	keys := []string{"fork_ns", "execute_ns", "classify_ns"}
	exps, got := 0, [3]int64{}
	for _, r := range recs {
		if r.Name != "engine.cluster" {
			continue
		}
		n, err := strconv.Atoi(r.Attrs["experiments"])
		if err != nil {
			t.Fatalf("engine.cluster span with attributes %v", r.Attrs)
		}
		exps += n
		for i, k := range keys {
			ns, err := strconv.ParseInt(r.Attrs[k], 10, 64)
			if err != nil {
				t.Fatalf("engine.cluster span %s: %s %q", r.Attrs["cluster"], k, r.Attrs[k])
			}
			got[i] += ns
		}
	}
	if exps != want {
		t.Errorf("engine.cluster spans count %d experiments, the campaign simulated %d", exps, want)
	}
	after := phaseSums()
	for i, k := range keys {
		if d := got[i] - (after[i] - before[i]); d < -1000 || d > 1000 {
			t.Errorf("%s sums to %d over the clusters, the histogram gained %d", k, got[i], after[i]-before[i])
		}
	}
}

// submitSmall POSTs a tiny local campaign and returns its id.
func submitSmall(t *testing.T, base, id string) {
	t.Helper()
	body := `{"id":"` + id + `","app":"VA","gpu":"RTX2060","kernel":"va_add",` +
		`"structure":"regfile","runs":6,"seed":9}`
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
}

// TestSSETerminalEventCarriesTraceID subscribes to a campaign's event
// stream and checks the terminal "done" snapshot names the root trace, so
// a streaming client can jump straight from the finish line to the
// timeline without a second status fetch.
func TestSSETerminalEventCarriesTraceID(t *testing.T) {
	_, ts := newRunningServer(t)
	id := "sse-trace"
	submitSmall(t, ts.URL, id)

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var event string
	var doneData []byte
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			doneData = []byte(strings.TrimPrefix(line, "data: "))
		}
		if doneData != nil {
			break
		}
	}
	if doneData == nil {
		t.Fatal("stream ended without a done event")
	}
	var st struct {
		State   string `json:"state"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(doneData, &st); err != nil {
		t.Fatalf("done payload: %v", err)
	}
	if st.State != "done" {
		t.Fatalf("terminal state %q", st.State)
	}
	tid, ok := obs.ParseTraceID(st.TraceID)
	if !ok {
		t.Fatalf("done event trace_id %q is not a valid trace ID", st.TraceID)
	}

	// It must match the status endpoint's view of the same campaign.
	resp2, err := http.Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st2 struct {
		TraceID string `json:"trace_id"`
	}
	json.NewDecoder(resp2.Body).Decode(&st2)
	resp2.Body.Close()
	if st2.TraceID != tid.String() {
		t.Errorf("status trace_id %q, SSE carried %q", st2.TraceID, tid)
	}
}

// TestLocalTraceTimeline checks a local-mode (non-sharded) campaign still
// produces a complete span timeline: root campaign span, queue wait, and
// the engine's snapshot and cluster spans, the clusters carrying every
// experiment's phase times, served over /trace in both formats.
func TestLocalTraceTimeline(t *testing.T) {
	_, ts := newRunningServer(t)
	id := "local-trace"
	before := phaseSums()
	submitSmall(t, ts.URL, id)

	// Wait for the campaign to finish.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("campaign ended %s", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace?format=jsonl: %d %s", resp.StatusCode, raw)
	}
	// ReadSpans skips what it cannot parse; the log must hold none of it.
	for _, line := range bytes.Split(raw, []byte("\n")) {
		var rec obs.SpanRecord
		if len(line) > 0 && json.Unmarshal(line, &rec) != nil {
			t.Fatalf("bad span line %q", line)
		}
	}
	recs, err := obs.ReadSpans(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	spanIDs := map[string]bool{}
	for _, rec := range recs {
		names[rec.Name]++
		spanIDs[rec.Span] = true
	}
	for _, want := range []string{"campaign", "service.queue", "engine.snapshot", "engine.cluster"} {
		if names[want] == 0 {
			t.Errorf("local timeline missing %s spans (have %v)", want, names)
		}
	}
	checkClusterSpans(t, recs, before, 6) // submitSmall's runs
	for _, rec := range recs {
		if rec.Parent != "" && !spanIDs[rec.Parent] {
			t.Errorf("span %s (%s) has orphaned parent %s", rec.Span, rec.Name, rec.Parent)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/campaigns/" + id + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		DisplayUnit string            `json:"displayTimeUnit"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.DisplayUnit != "ms" {
		t.Fatalf("chrome export: %d events, unit %q", len(doc.TraceEvents), doc.DisplayUnit)
	}
}

// TestHTTPRouteCounter checks the per-route-class request counter lands
// in the Prometheus exposition with its bounded label.
func TestHTTPRouteCounter(t *testing.T) {
	_, ts := newAPIServer(t)
	for _, p := range []string{"/healthz", "/readyz", "/v1/campaigns?limit=1"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`gpufi_http_requests_total{route="ops"}`,
		`gpufi_http_requests_total{route="campaigns"}`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

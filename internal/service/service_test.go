package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpufi/internal/core"
	"gpufi/internal/store"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// readSSE consumes an SSE stream until stop returns true or the stream
// ends, returning every event seen. No sleeps: the stream itself is the
// synchronization.
func readSSE(t *testing.T, resp *http.Response, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var events []sseEvent
	var cur sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if stop(cur) {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

func postCampaign(t *testing.T, base string, body string) status {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := json.Marshal(resp.Header)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/campaigns: %d %s %s", resp.StatusCode, buf.String(), raw)
	}
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

const vaBody = `{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":25,"seed":11,"workers":2}`

// TestServiceLifecycle drives the full HTTP lifecycle against an httptest
// server: submit → SSE progress → completion → status → log download →
// metrics, then cancellation of a running campaign — with no sleeps and
// no real network.
func TestServiceLifecycle(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1})
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Submit and follow the SSE stream to completion.
	sub := postCampaign(t, ts.URL, vaBody)
	if sub.State != StateQueued || sub.Runs != 25 {
		t.Fatalf("submission: %+v", sub)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp, func(ev sseEvent) bool { return ev.name == "done" })
	var progress int
	var final status
	for _, ev := range events {
		switch ev.name {
		case "progress":
			progress++
		case "done":
			if err := json.Unmarshal(ev.data, &final); err != nil {
				t.Fatal(err)
			}
		}
	}
	if progress == 0 {
		t.Error("no progress events on the SSE stream")
	}
	if final.State != StateDone || final.Counts.Total() != 25 {
		t.Fatalf("final SSE state: %+v", final)
	}

	// Status agrees with the stream.
	var got status
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+sub.ID, &got); code != 200 {
		t.Fatalf("status code %d", code)
	}
	if got.State != StateDone || got.Counts != final.Counts {
		t.Errorf("status: %+v", got)
	}

	// Duplicate submission of a complete campaign is refused.
	dupResp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(vaBody))
	if err != nil {
		t.Fatal(err)
	}
	dupResp.Body.Close()
	if dupResp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate submission: %d", dupResp.StatusCode)
	}

	// The downloaded journal parses to the same counts.
	logResp, err := http.Get(ts.URL + "/v1/campaigns/" + sub.ID + "/log")
	if err != nil {
		t.Fatal(err)
	}
	logs, err := store.ParseLog(logResp.Body)
	logResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || logs[0].Counts != final.Counts || len(logs[0].Exps) != 25 {
		t.Errorf("journal download: %d campaigns, %+v", len(logs), logs[0].Counts)
	}

	// Metrics reflect the finished job.
	var m map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics code %d", code)
	}
	if m["jobs_done"].(float64) < 1 || m["experiments_total"].(float64) < 25 {
		t.Errorf("metrics: %+v", m)
	}

	// Cancel a running campaign: wait for its first progress event, then
	// DELETE — which blocks until the journal is synced, so the response
	// state is terminal.
	big := postCampaign(t, ts.URL,
		`{"app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","runs":5000,"seed":3,"workers":2}`)
	evResp, err := http.Get(ts.URL + "/v1/campaigns/" + big.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	readSSE(t, evResp, func(ev sseEvent) bool { return ev.name == "progress" })
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+big.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del map[string]string
	json.NewDecoder(delResp.Body).Decode(&del)
	delResp.Body.Close()
	if del["state"] != StateCancelled {
		t.Fatalf("cancel: %+v", del)
	}
	var cst status
	getJSON(t, ts.URL+"/v1/campaigns/"+big.ID, &cst)
	if cst.State != StateCancelled || cst.Completed == 0 || cst.Completed >= 5000 {
		t.Errorf("cancelled status: %+v", cst)
	}

	// Unknown campaigns 404; invalid specs 400.
	if code := getJSON(t, ts.URL+"/v1/campaigns/nope", nil); code != 404 {
		t.Errorf("unknown campaign: %d", code)
	}
	badResp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"app":"NOPE","gpu":"RTX2060","kernel":"k","structure":"regfile","runs":1}`))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: %d", badResp.StatusCode)
	}
}

// TestServiceQueue exercises the bounded FIFO without starting workers,
// so queue states are deterministic: the bound rejects with 503, double
// submission with 409, and DELETE of a queued job cancels it in place.
func TestServiceQueue(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler()) // Start never called: jobs stay queued
	defer ts.Close()

	first := postCampaign(t, ts.URL, vaBody)
	if first.State != StateQueued {
		t.Fatalf("first submission: %+v", first)
	}
	// Same id again: conflict.
	resp, _ := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(vaBody))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate queued submission: %d", resp.StatusCode)
	}
	// Queue full: 503.
	other := strings.Replace(vaBody, `"seed":11`, `"seed":12`, 1)
	resp, _ = http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(other))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("over-depth submission: %d", resp.StatusCode)
	}
	// Cancel the queued job.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+first.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del map[string]string
	json.NewDecoder(delResp.Body).Decode(&del)
	delResp.Body.Close()
	if del["state"] != StateCancelled {
		t.Errorf("queued cancel: %+v", del)
	}
	// The slot freed up.
	resp, _ = http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(other))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("submission after cancel: %d", resp.StatusCode)
	}
}

// TestServiceRestartResume is the acceptance test for crash-safe serving:
// kill a server mid-campaign, start a fresh one on the same store, and
// the resumed campaign's final counts are bit-identical to an
// uninterrupted run with the same seed.
func TestServiceRestartResume(t *testing.T) {
	spec := store.Spec{App: "VA", GPU: "RTX2060", Kernel: "va_add",
		Structure: "regfile", Runs: 60, Seed: 21, Workers: 2}

	// Reference: uninterrupted run of the same spec.
	refStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refStore.Run(nil, "", spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st1.BatchSize = 4
	srv1 := New(st1, Options{Workers: 1})
	if _, err := srv1.Start(nil); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	raw, _ := json.Marshal(spec)
	sub := postCampaign(t, ts1.URL, string(raw))

	// Let the campaign make some progress — the SSE stream is the clock —
	// then kill the server the way a crash would: cancel everything.
	evResp, err := http.Get(ts1.URL + "/v1/campaigns/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	progress := 0
	readSSE(t, evResp, func(ev sseEvent) bool {
		if ev.name == "progress" {
			progress++
		}
		return progress >= 5 || ev.name == "done"
	})
	srv1.Close()
	ts1.Close()

	// The journal on disk is partial but intact.
	info, err := st1.Inspect(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Done {
		t.Skip("campaign finished before the shutdown landed; nothing to resume")
	}
	if info.Completed == 0 {
		t.Fatal("no experiments journaled before shutdown")
	}

	// A fresh server on the same store resumes the campaign by itself.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(st2, Options{Workers: 1})
	resumed, err := srv2.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if len(resumed) != 1 || resumed[0] != sub.ID {
		t.Fatalf("resume scan found %v", resumed)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	evResp2, err := http.Get(ts2.URL + "/v1/campaigns/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var final status
	evs := readSSE(t, evResp2, func(ev sseEvent) bool { return ev.name == "done" })
	for _, ev := range evs {
		if ev.name == "done" {
			if err := json.Unmarshal(ev.data, &final); err != nil {
				t.Fatal(err)
			}
		}
	}
	if final.State != StateDone || !final.Resumed {
		t.Fatalf("resumed job final state: %+v", final)
	}
	if final.Counts != ref.Counts {
		t.Errorf("resumed counts %+v != uninterrupted %+v", final.Counts, ref.Counts)
	}

	// The merged journal holds all 60 experiments exactly once.
	logResp, err := http.Get(ts2.URL + "/v1/campaigns/" + sub.ID + "/log")
	if err != nil {
		t.Fatal(err)
	}
	logs, err := store.ParseLog(logResp.Body)
	logResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || len(logs[0].Exps) != 60 || logs[0].Counts != ref.Counts {
		t.Fatalf("merged journal: %d exps, %+v", len(logs[0].Exps), logs[0].Counts)
	}
	seen := map[int]bool{}
	for _, e := range logs[0].Exps {
		if seen[e.ID] {
			t.Errorf("experiment %d journaled twice", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestResumeSkipsCancelled: a campaign cancelled by request must not be
// resurrected by the next server's resume scan.
func TestResumeSkipsCancelled(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Fabricate an interrupted campaign and a cancelled one.
	spec := store.Spec{App: "VA", GPU: "RTX2060", Kernel: "va_add",
		Structure: "regfile", Runs: 9, Seed: 2}
	for _, id := range []string{"keep", "drop"} {
		c, err := st.Create(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Append(core.Experiment{ID: 0, Effect: "Masked"}); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.MarkCancelled("drop"); err != nil {
		t.Fatal(err)
	}

	srv := New(st, Options{Workers: 1})
	resumed, err := srv.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if fmt.Sprint(resumed) != "[keep]" {
		t.Errorf("resume scan: %v", resumed)
	}
}

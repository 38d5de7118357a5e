package shard_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/service"
	"gpufi/internal/shard"
	"gpufi/internal/sim"
	"gpufi/internal/store"
)

// This file gates the distributed-tracing layer: a sharded campaign must
// leave behind a spans.jsonl timeline that links coordinator and worker
// work under one root trace, survives a coordinator crash without
// orphaning parents, exports to the Chrome trace-event format, and —
// crucially — never leaks a single byte into the experiment journal.

// campaignStatus fetches the /v1 status of a campaign.
func campaignStatus(t *testing.T, base, id string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// spanLog reads a campaign's spans.jsonl from the store the way every
// timeline reader does (obs.ReadSpans), keyed by span ID. ReadSpans skips
// lines it cannot parse, so every line is first checked to be one whole
// record: an interleaved or corrupt write fails the test.
func spanLog(t *testing.T, st *store.Store, id string) map[string]obs.SpanRecord {
	t.Helper()
	f, err := st.OpenSpans(id)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
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
	spans := make(map[string]obs.SpanRecord, len(recs))
	for _, rec := range recs {
		spans[rec.Span] = rec
	}
	return spans
}

// assertNoOrphans checks that every parent reference in the span set
// resolves to a span of the same trace — the announce-record discipline's
// whole purpose.
func assertNoOrphans(t *testing.T, spans map[string]obs.SpanRecord) {
	t.Helper()
	for id, rec := range spans {
		if rec.Parent == "" {
			continue
		}
		parent, ok := spans[rec.Parent]
		if !ok {
			t.Errorf("span %s (%s) has orphaned parent %s", id, rec.Name, rec.Parent)
			continue
		}
		if parent.Trace != rec.Trace {
			t.Errorf("span %s (%s) parents across traces: %s vs %s", id, rec.Name, rec.Trace, parent.Trace)
		}
	}
}

// phaseSums is what the engine's three phase histograms hold, in ns.
func phaseSums() [3]int64 {
	st := core.EngineStats()
	return [3]int64{st.ForkNanos, st.ExecuteNanos, st.ClassifyNanos}
}

// checkClusterSpans holds a campaign's engine.cluster spans to the campaign:
// their experiments sum to want, the experiments its workers simulated, and
// their fork_ns, execute_ns and classify_ns to what the phase histograms
// gained since before, within 1 µs in all: both sum the same durations,
// and only round differently.
func checkClusterSpans(t *testing.T, spans map[string]obs.SpanRecord, before [3]int64, want int) {
	t.Helper()
	keys := []string{"fork_ns", "execute_ns", "classify_ns"}
	exps, got := 0, [3]int64{}
	for _, r := range spans {
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
		t.Errorf("engine.cluster spans count %d experiments, the workers simulated %d", exps, want)
	}
	after := phaseSums()
	for i, k := range keys {
		if d := got[i] - (after[i] - before[i]); d < -1000 || d > 1000 {
			t.Errorf("%s sums to %d over the clusters, the histogram gained %d", k, got[i], after[i]-before[i])
		}
	}
}

// TestTraceSmoke runs a small sharded campaign over HTTP workers and
// checks the full trace contract: one root trace spanning service,
// coordinator, and workers; at least one span per engine stage and per
// claiming worker, the cluster spans carrying every experiment's phase
// times; a loadable Chrome export; and a journal that is byte-identical to
// an untraced local run.
func TestTraceSmoke(t *testing.T) {
	c := startCluster(t, t.TempDir(), 4, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(ctx, c, "tw1", 4, nil)
	startWorker(ctx, c, "tw2", 4, nil)

	id := "trace-smoke"
	spec := store.Spec{
		App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile",
		Runs: 48, Seed: 7, Workers: 2,
	}
	before := phaseSums()
	submit(t, c.ts.URL, map[string]any{
		"id": id, "app": spec.App, "gpu": spec.GPU, "kernel": spec.Kernel,
		"structure": spec.Structure, "runs": spec.Runs, "seed": spec.Seed,
		"workers": spec.Workers,
	})
	waitDone(t, c.ts.URL, id, 2*time.Minute)

	rootTrace, _ := campaignStatus(t, c.ts.URL, id)["trace_id"].(string)
	if _, ok := obs.ParseTraceID(rootTrace); !ok {
		t.Fatalf("campaign status trace_id %q is not a valid trace ID", rootTrace)
	}

	spans := spanLog(t, c.st, id)
	if len(spans) == 0 {
		t.Fatal("no spans persisted")
	}
	for _, rec := range spans {
		if rec.Trace != rootTrace {
			t.Fatalf("span %s (%s) carries trace %s, want root %s", rec.Span, rec.Name, rec.Trace, rootTrace)
		}
	}
	assertNoOrphans(t, spans)

	// Lifecycle coverage: every phase of the distributed pipeline must
	// have left at least one span.
	byName := map[string]int{}
	nodeSpans := map[string]int{}
	claimed := map[string]bool{} // workers named in coordinator.claim spans
	for _, rec := range spans {
		byName[rec.Name]++
		if rec.Node != "" {
			nodeSpans[rec.Node]++
		}
		if rec.Name == "coordinator.claim" {
			claimed[rec.Attrs["worker"]] = true
		}
	}
	for _, want := range []string{
		"campaign", "service.queue",
		"coordinator.profile", "coordinator.plan", "coordinator.claim",
		"coordinator.ingest", "coordinator.finalize", "wal.fsync",
		"worker.shard", "worker.profile", "engine.snapshot", "engine.cluster",
	} {
		if byName[want] == 0 {
			t.Errorf("no %s span in the timeline (have %v)", want, byName)
		}
	}
	checkClusterSpans(t, spans, before, spec.Runs)
	if len(claimed) == 0 {
		t.Fatal("no coordinator.claim spans name a worker")
	}
	for w := range claimed {
		if nodeSpans[w] == 0 {
			t.Errorf("worker %s claimed a shard but emitted no spans", w)
		}
	}

	// ?format=jsonl streams the raw timeline, byte for byte.
	resp, err := http.Get(c.ts.URL + "/v1/campaigns/" + id + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace?format=jsonl: %d %s", resp.StatusCode, raw)
	}
	f, err := c.st.OpenSpans(id)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, _ := io.ReadAll(f)
	f.Close()
	if !bytes.Equal(raw, onDisk) {
		t.Errorf("trace?format=jsonl streamed %d bytes, the store's span log is %d", len(raw), len(onDisk))
	}

	// ?format=chrome is a loadable trace-event document: thread metadata
	// per node, one complete event per span.
	resp, err = http.Get(c.ts.URL + "/v1/campaigns/" + id + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace?format=chrome: %d %s", resp.StatusCode, raw)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	threads := map[string]bool{}
	chromeNames := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			threads[ev.Args["name"]] = true
		case "X":
			chromeNames[ev.Name]++
			for _, k := range []string{"fork_ns", "execute_ns", "classify_ns"} {
				if _, err := strconv.ParseInt(ev.Args[k], 10, 64); ev.Name == "engine.cluster" && err != nil {
					t.Errorf("chrome engine.cluster event has %s %q", k, ev.Args[k])
				}
			}
		default:
			t.Errorf("unexpected chrome event phase %q", ev.Ph)
		}
	}
	for w := range claimed {
		if !threads[w] {
			t.Errorf("chrome export missing thread track for worker %s (have %v)", w, threads)
		}
	}
	for _, phase := range []string{"engine.snapshot", "engine.cluster"} {
		if chromeNames[phase] == 0 {
			t.Errorf("chrome export has no %s events", phase)
		}
	}
	if path := os.Getenv("TRACE_SMOKE_FILE"); path != "" {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// An invalid format is a client error, not a silent default.
	resp, err = http.Get(c.ts.URL + "/v1/campaigns/" + id + "/trace?format=perfetto")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("trace?format=perfetto: %d, want 400", resp.StatusCode)
	}

	// Tracing must never touch the experiment journal: span records ride
	// journal batches but are diverted before the merge, so the sharded
	// journal stays byte-identical to an untraced library run.
	local, _, _ := library(t, spec)
	sharded, dups := journalRecords(t, c.st, id)
	if dups != 0 {
		t.Errorf("%d duplicate exp records in the traced merge", dups)
	}
	for key := range sharded {
		if strings.HasPrefix(key, "span") {
			t.Fatalf("span record %s leaked into the experiment journal", key)
		}
	}
	diffJournals(t, "trace-smoke", sharded, local)
}

// TestTraceparentRetryPropagation intercepts the worker→coordinator hops:
// every journal POST, the idle worker's empty batches included, must carry
// a W3C traceparent rooted in the campaign's trace, and a batch refused with
// a synthetic 503 coordinator_recovering must be re-sent under the SAME
// traceparent — the retry is the same unit of work, not a new trace.
func TestTraceparentRetryPropagation(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A short lease keeps the idle interval at 100 ms; the first
	// experiment's 250 ms stall below outlasts it twice, so the shard sends
	// at least one empty batch.
	co := shard.NewCoordinator(st, shard.Options{ShardsPerCampaign: 2, LeaseTTL: 300 * time.Millisecond})
	srv := service.New(st, service.Options{Workers: 2, Coordinator: co})
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()

	var mu sync.Mutex
	journalTPs := []string{} // traceparent per journal POST, in arrival order
	idleTPs := []string{}    // traceparent per empty, non-final journal POST
	rejected := false        // one synthetic coordinator_recovering injected
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/journal") {
			raw, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(raw))
			b, err := shard.DecodeBatch(raw)
			mu.Lock()
			journalTPs = append(journalTPs, r.Header.Get(obs.TraceparentHeader))
			if err == nil && len(b.Records) == 0 && !b.Final {
				idleTPs = append(idleTPs, r.Header.Get(obs.TraceparentHeader))
			}
			inject := !rejected
			rejected = true
			mu.Unlock()
			if inject {
				w.Header().Set("Retry-After", "0")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":{"code":"coordinator_recovering","message":"synthetic outage"}}`)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); srv.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &shard.Worker{Base: ts.URL, Name: "tpw", BatchSize: 4, Poll: 5 * time.Millisecond}
	var stalled atomic.Bool
	defer core.SetExperimentHook(core.SetExperimentHook(func(int, *sim.FaultSpec) {
		if !stalled.Swap(true) {
			time.Sleep(250 * time.Millisecond)
		}
	}))
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()

	id := "trace-retry"
	submit(t, ts.URL, map[string]any{
		"id": id, "app": "VA", "gpu": "RTX2060", "kernel": "va_add",
		"structure": "regfile", "runs": 24, "seed": 3, "workers": 1,
	})
	waitDone(t, ts.URL, id, 2*time.Minute)
	cancel()
	<-done

	rootTrace, _ := campaignStatus(t, ts.URL, id)["trace_id"].(string)
	mu.Lock()
	defer mu.Unlock()
	if len(journalTPs) < 2 {
		t.Fatalf("expected the refused batch plus its retry, saw %d journal POSTs", len(journalTPs))
	}
	for i, tp := range journalTPs {
		tid, _, ok := obs.ParseTraceparent(tp)
		if !ok {
			t.Fatalf("journal POST %d carries invalid traceparent %q", i, tp)
		}
		if tid.String() != rootTrace {
			t.Errorf("journal POST %d traces %s, want campaign root %s", i, tid, rootTrace)
		}
	}
	if journalTPs[0] != journalTPs[1] {
		t.Errorf("503 retry changed the traceparent: %q then %q", journalTPs[0], journalTPs[1])
	}
	if len(idleTPs) == 0 {
		t.Fatal("no empty batch while the engine stalled for longer than the idle interval")
	}
	for i, tp := range idleTPs {
		if tid, _, ok := obs.ParseTraceparent(tp); !ok || tid.String() != rootTrace {
			t.Errorf("empty batch %d carries traceparent %q, want trace %s", i, tp, rootTrace)
		}
	}
}

// TestTraceLeaseReissue checks that trace identity is stamped per lease
// grant: a shard claimed, abandoned, and re-issued under a higher epoch
// still carries the campaign's root trace, so the re-claiming worker's
// spans land in the same timeline.
func TestTraceLeaseReissue(t *testing.T) {
	c := startCluster(t, t.TempDir(), 2, 60*time.Millisecond)

	id := "trace-reissue"
	submit(t, c.ts.URL, map[string]any{
		"id": id, "app": "VA", "gpu": "RTX2060", "kernel": "va_add",
		"structure": "regfile", "runs": 24, "seed": 5, "workers": 1,
	})

	// Claim manually and go silent; the lease must expire and re-issue.
	sh1 := claimShard(t, c.ts.URL, "ghost", 5*time.Second)
	rootTrace, _ := campaignStatus(t, c.ts.URL, id)["trace_id"].(string)
	if sh1.Trace != rootTrace {
		t.Fatalf("granted shard carries trace %q, want campaign root %q", sh1.Trace, rootTrace)
	}
	if _, ok := obs.ParseSpanID(sh1.Span); !ok {
		t.Fatalf("granted shard carries invalid parent span %q", sh1.Span)
	}

	deadline := time.Now().Add(10 * time.Second)
	var sh2 *shard.Shard
	for time.Now().Before(deadline) {
		sh := claimShard(t, c.ts.URL, "heir", 5*time.Second)
		if sh.ID == sh1.ID {
			sh2 = sh
			break
		}
		// Claimed the sibling shard first; park it and let its lease lapse
		// too — the loop only ends when sh1's re-issue comes around.
		time.Sleep(70 * time.Millisecond)
	}
	if sh2 == nil {
		t.Fatalf("shard %s was never re-issued after its lease expired", sh1.ID)
	}
	if sh2.Epoch <= sh1.Epoch {
		t.Fatalf("re-issued shard epoch %d, want > %d", sh2.Epoch, sh1.Epoch)
	}
	if sh2.Trace != rootTrace || sh2.Span != sh1.Span {
		t.Errorf("re-issue changed trace identity: trace %q span %q, want %q %q",
			sh2.Trace, sh2.Span, rootTrace, sh1.Span)
	}

	// Let real workers finish the campaign so the cluster shuts down clean.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(ctx, c, "rw1", 4, nil)
	startWorker(ctx, c, "rw2", 4, nil)
	waitDone(t, c.ts.URL, id, 2*time.Minute)
}

// TestTraceChaosReconstruction is the crash-forensics gate: the
// coordinator is killed once mid-campaign and restarted over the same
// store. The recovery lifetime must dump the flight recorder, and the
// appended span log must still reconstruct the campaign — no orphaned
// parents in any trace, and the span union covering at least 90% of the
// campaign's wall clock.
func TestTraceChaosReconstruction(t *testing.T) {
	dir := t.TempDir()
	p := newChaosProxy(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w1 := startChaosWorker(ctx, p.URL(), "fw1")
	w2 := startChaosWorker(ctx, p.URL(), "fw2")

	id := "trace-chaos"
	submit0 := func(base string) {
		submit(t, base, map[string]any{
			"id": id, "app": "VA", "gpu": "RTX2060", "kernel": "va_add",
			"structure": "regfile", "runs": 48, "seed": 11, "workers": 2,
		})
	}

	l := startChaosLifetime(t, dir, 4, 5*time.Second)
	p.set(l.srv.Handler())
	submit0(p.URL())

	co := l.co
	if !killWhen(t, l, p, id, func() bool { return co.Stats().Batches >= 2 }, 2*time.Minute) {
		t.Fatal("campaign finished before the kill point; raise Runs")
	}
	l = startChaosLifetime(t, dir, 4, 5*time.Second)
	p.set(l.srv.Handler())
	chaosWaitDone(t, p.URL(), id, 3*time.Minute)
	cancel()
	for _, done := range []chan struct{}{w1, w2} {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit after cancel")
		}
	}

	// The recovery lifetime must have dumped the flight ring, and the dump
	// must record the recovery itself.
	flightRecs := 0
	sawRecovery := false
	f, err := os.Open(l.st.FlightPath())
	if err != nil {
		t.Fatalf("no flight dump after crash recovery: %v", err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad flight record %q: %v", sc.Text(), err)
		}
		flightRecs++
		if rec.Name == "coordinator.recovery_start" {
			sawRecovery = true
		}
	}
	f.Close()
	if flightRecs == 0 || !sawRecovery {
		t.Fatalf("flight dump has %d records, recovery marker %v", flightRecs, sawRecovery)
	}

	// The span log spans both lifetimes (one trace per attempt). Every
	// parent must resolve within its trace — the announce discipline —
	// and the union of span intervals must cover ≥90% of the wall clock.
	spans := spanLog(t, l.st, id)
	if len(spans) == 0 {
		t.Fatal("no spans survived the crash")
	}
	assertNoOrphans(t, spans)
	traces := map[string]bool{}
	for _, rec := range spans {
		traces[rec.Trace] = true
	}
	if len(traces) < 2 {
		t.Errorf("expected one trace per lifetime, got %d", len(traces))
	}

	type iv struct{ lo, hi int64 }
	var ivs []iv
	var wallLo, wallHi int64
	first := true
	for _, rec := range spans {
		if rec.DurUS <= 0 {
			continue // announce-only or point records add no coverage
		}
		v := iv{rec.StartUS, rec.StartUS + rec.DurUS}
		ivs = append(ivs, v)
		if first || v.lo < wallLo {
			wallLo = v.lo
		}
		if first || v.hi > wallHi {
			wallHi = v.hi
		}
		first = false
	}
	if first {
		t.Fatal("no finished spans to measure coverage with")
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, cursor int64
	cursor = wallLo
	for _, v := range ivs {
		if v.hi <= cursor {
			continue
		}
		if v.lo > cursor {
			cursor = v.lo
		}
		covered += v.hi - cursor
		cursor = v.hi
	}
	wall := wallHi - wallLo
	share := float64(covered) / float64(wall)
	t.Logf("trace reconstructs %.1f%% of %.1f ms wall clock across %d spans, %d traces",
		100*share, float64(wall)/1e3, len(spans), len(traces))
	if share < 0.90 {
		t.Errorf("span union covers %.1f%% of the wall clock, want >= 90%%", 100*share)
	}

	// The journal is still whole — the crash plus tracing stranded nothing.
	merged, dups := journalRecords(t, l.st, id)
	if dups != 0 {
		t.Errorf("%d duplicate exp records survived the traced chaos merge", dups)
	}
	for i := 0; i < 48; i++ {
		if _, ok := merged[fmt.Sprintf("exp:%d", i)]; !ok {
			t.Fatalf("experiment %d missing after the crash", i)
		}
	}
	l.srv.Close()
}

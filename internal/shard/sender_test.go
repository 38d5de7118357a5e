package shard_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpufi/internal/shard"
)

// These tests hold the worker's batch sender to its contract from the
// coordinator's side of the wire: the chaos proxy's tap in front of a real
// cluster sees every journal POST and may delay it, answer in the
// coordinator's place, or drop the connection.

// tapCluster puts a chaosProxy with the given journal tap in front of a
// cluster and returns it; workers and hand-made claims go through its URL.
func tapCluster(t *testing.T, c *cluster, tap func(n int, b shard.Batch, w http.ResponseWriter) bool) *chaosProxy {
	p := newChaosProxy(t)
	p.tap = tap
	p.set(c.srv.Handler())
	return p
}

// TestSenderGroupCommit slows every journal POST down: the engine must
// not wait for them. Records pile up behind the POST in flight and the
// next one carries them all, so the shard takes fewer POSTs than
// records / BatchSize — and every experiment record of the traced campaign
// carries its own propagation trace, sequence numbers count up by one, and
// the coordinator sees the experiments in engine order.
func TestSenderGroupCommit(t *testing.T) {
	c := startCluster(t, t.TempDir(), 1, time.Minute)
	tap := tapCluster(t, c, func(int, shard.Batch, http.ResponseWriter) bool {
		time.Sleep(5 * time.Millisecond)
		return false
	})
	const batch = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &shard.Worker{Base: tap.URL(), Name: "w", BatchSize: batch, Poll: 5 * time.Millisecond}
	exited := make(chan struct{})
	go func() { defer close(exited); w.Run(ctx) }()

	id := "group-commit"
	submit(t, c.ts.URL, map[string]any{
		"id": id, "app": "VA", "gpu": "RTX2060", "kernel": "va_add", "structure": "regfile",
		"runs": 60, "seed": 7, "workers": 1, "trace": true,
	})
	waitDone(t, c.ts.URL, id, 2*time.Minute)
	cancel()
	<-exited

	records := 0
	seen := tap.seen()
	for _, b := range seen {
		records += len(b.Records)
		for _, r := range b.Records {
			if r.Kind == shard.KindExp && (r.Trace == nil || r.Trace.ID != r.Exp.ID) {
				t.Errorf("POST %d: experiment %d travels with trace %+v", b.Seq, r.Exp.ID, r.Trace)
			}
		}
	}
	if len(seen) >= records/batch {
		t.Errorf("%d POSTs for %d records at batch size %d: the engine waited for every one", len(seen), records, batch)
	}
	for i, b := range seen {
		if b.Seq != i+1 {
			t.Errorf("POST %d carries seq %d", i+1, b.Seq)
		}
		if b.Final != (i == len(seen)-1) {
			t.Errorf("POST %d of %d: final=%v", i+1, len(seen), b.Final)
		}
	}
	sharded, dups := journalRecords(t, c.st, id)
	if len(sharded) != 61 || dups != 0 {
		t.Errorf("merged journal has %d records (%d duplicates), want 61", len(sharded), dups)
	}
}

// TestSenderErrorStopsShard answers one journal POST with each way a
// coordinator can refuse it. The engine is far from done at that point, so
// it must stop at its next callback (the error comes back wrapped as the
// engine's), nothing may follow the refused POST, the shard is abandoned
// with the typed error exactly as when the engine itself made the POST, and
// it leaves no goroutine behind.
func TestSenderErrorStopsShard(t *testing.T) {
	envelope := func(code string) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintf(w, `{"error":{"code":%q,"message":"injected by the test"}}`, code)
		}
	}
	for _, tc := range []struct {
		name   string
		answer func(http.ResponseWriter)
		want   error
		outage bool // the refusal is a dead connection, retried until the budget runs out
	}{
		{name: "lease_fenced", answer: envelope("lease_fenced"), want: shard.ErrLeaseFenced},
		{name: "campaign_closed", answer: envelope("campaign_closed"), want: shard.ErrCampaignClosed},
		{name: "dropped", answer: func(http.ResponseWriter) { panic(http.ErrAbortHandler) }, outage: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const failAt = 2
			c := startCluster(t, t.TempDir(), 1, time.Minute)
			tap := tapCluster(t, c, func(n int, _ shard.Batch, w http.ResponseWriter) bool {
				if n < failAt {
					return false
				}
				tc.answer(w)
				return true
			})
			submit(t, c.ts.URL, map[string]any{
				"id": "refused-" + strings.ReplaceAll(tc.name, "_", "-"), "app": "VA", "gpu": "RTX2060",
				"kernel": "va_add", "structure": "regfile", "runs": 2000, "seed": 7, "workers": 1,
			})
			sh := claimShard(t, tap.URL(), "w", time.Minute)
			// Every retry through the outage re-sends the refused batch whole,
			// and that batch holds whatever the engine finished while the
			// first POST was in flight — over a hundred records at times. A
			// backoff of 10–20 ms fits at most four retries into the budget,
			// so the re-sends cannot add up to the bound below.
			tr := &http.Transport{}
			w := &shard.Worker{
				Base: tap.URL(), Name: "w", BatchSize: 2, Client: &http.Client{Transport: tr},
				BackoffBase: 20 * time.Millisecond, BackoffMax: 20 * time.Millisecond, OutageBudget: 40 * time.Millisecond,
			}
			goroutines := runtime.NumGoroutine()
			err := w.RunShard(context.Background(), sh)
			posts := len(tap.seen())

			switch {
			case tc.outage:
				if err == nil || !strings.Contains(err.Error(), "outage budget") {
					t.Errorf("shard on a dead connection: %v, want the outage budget exhausted", err)
				}
				if posts <= failAt {
					t.Errorf("%d POSTs: the dropped one was never retried", posts)
				}
			case !errors.Is(err, tc.want):
				t.Errorf("shard error %v, want %v", err, tc.want)
			}
			if !tc.outage && posts != failAt {
				t.Errorf("%d journal POSTs, want %d: nothing may follow the refused one", posts, failAt)
			}
			if err != nil && !strings.Contains(err.Error(), ": engine: ") {
				t.Errorf("%v: the engine ran to its end instead of stopping at its next callback", err)
			}
			if n := len(sh.Indices); n != 2000 {
				t.Fatalf("shard has %d experiments, want the whole campaign", n)
			}
			shipped := 0
			for _, b := range tap.seen() {
				shipped += len(b.Records)
			}
			if shipped > 1000 {
				t.Errorf("%d of 2000 records left the worker: the engine kept going after the refusal", shipped)
			}

			// Nothing is sent once the shard has returned, and its sender and
			// heartbeat goroutines are gone (the connections' own go with
			// the transport's idle pool).
			tr.CloseIdleConnections()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines after the shard, %d before it", n, goroutines)
			}
			if late := len(tap.seen()); late != posts {
				t.Errorf("%d journal POSTs arrived after the shard returned", late-posts)
			}
		})
	}
}

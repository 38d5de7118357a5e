package shard_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/shard"
	"gpufi/internal/sim"
	"gpufi/internal/store"
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
// the coordinator sees the experiments in engine order. Exactly the last
// POST is final, unless the sender's own last POST carried the campaign's
// last experiments: the coordinator closes the campaign on it, and a final
// batch after it would only be refused as closed.
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

	const id, runs = "group-commit", 60
	submit(t, c.ts.URL, map[string]any{
		"id": id, "app": "VA", "gpu": "RTX2060", "kernel": "va_add", "structure": "regfile",
		"runs": runs, "seed": 7, "workers": 1, "trace": true,
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
	exps := func(bs []shard.Batch) int {
		ids := map[int]bool{}
		for _, b := range bs {
			for _, r := range b.Records {
				if r.Kind == shard.KindExp {
					ids[r.Exp.ID] = true
				}
			}
		}
		return len(ids)
	}
	if len(seen) == 0 {
		t.Fatal("no journal POSTs")
	}
	last := len(seen) - 1
	for i, b := range seen {
		if b.Seq != i+1 {
			t.Errorf("POST %d carries seq %d", i+1, b.Seq)
		}
		if b.Final && i != last {
			t.Errorf("POST %d of %d is final", i+1, len(seen))
		}
	}
	// The campaign is this one shard, so it closes on the POST that carries
	// its last experiments. That POST is the last one, final or not: a
	// sender's POST that closed it is followed by nothing.
	if before, all := exps(seen[:last]), exps(seen); all != runs || before == runs {
		t.Errorf("POSTs carry %d of %d experiments, %d of them before the last POST (final=%v): the campaign must close on the last POST",
			all, runs, before, seen[last].Final)
	}
	sharded, dups := journalRecords(t, c.st, id)
	if len(sharded) != runs+1 || dups != 0 {
		t.Errorf("merged journal has %d records (%d duplicates), want %d", len(sharded), dups, runs+1)
	}
}

// TestSenderErrorStopsShard holds a shard to the one outage rule: only a
// verdict ends it. The verdict arms answer one journal POST with each way a
// coordinator can refuse it while the engine is far from done: the engine
// must stop at its next callback (the error comes back wrapped as the
// engine's), nothing may follow the refused POST, and the shard is
// abandoned with the typed error exactly as when the engine itself made the
// POST. The outage arms are waited out: the dropped arm drops one journal
// POST three times before admitting it, and the idle arm stalls the engine
// past the idle interval, so its first POST is an empty batch, and answers
// every journal POST coordinator_recovering for longer than the lease
// lives. Their shard completes, a retried POST keeps its Seq, and the
// merged journal is the library's. No arm leaves a goroutine behind. The
// worker retries every 20 ms, so the refused POSTs of the idle arm span
// its outage; under the built-in curve (100 ms, doubling) they span less
// than the lease.
func TestSenderErrorStopsShard(t *testing.T) {
	defer shard.SetBackoff(20*time.Millisecond, 20*time.Millisecond)()
	envelope := func(status int, code string) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":{"code":%q,"message":"injected by the test"}}`, code)
		}
	}
	const (
		failAt = 2
		drops  = 3
		ttl    = 300 * time.Millisecond
		outage = 4 * ttl / 3 // the idle arm's: four idle intervals
	)
	for _, tc := range []struct {
		name    string
		journal func(n int, w http.ResponseWriter) bool // the tap on journal POSTs
		want    error                                   // nil: the shard completes
	}{
		{name: "lease_fenced", want: shard.ErrLeaseFenced, journal: func(n int, w http.ResponseWriter) bool {
			if n >= failAt {
				envelope(http.StatusConflict, "lease_fenced")(w)
			}
			return n >= failAt
		}},
		{name: "campaign_closed", want: shard.ErrCampaignClosed, journal: func(n int, w http.ResponseWriter) bool {
			if n >= failAt {
				envelope(http.StatusConflict, "campaign_closed")(w)
			}
			return n >= failAt
		}},
		{name: "dropped", journal: func(n int, w http.ResponseWriter) bool {
			if n >= failAt && n < failAt+drops {
				panic(http.ErrAbortHandler)
			}
			return false
		}},
		{name: "idle", journal: func() func(int, http.ResponseWriter) bool {
			var first time.Time
			return func(_ int, w http.ResponseWriter) bool {
				if first.IsZero() {
					first = time.Now()
				}
				if time.Since(first) > outage {
					return false
				}
				w.Header().Set("Retry-After", "1")
				envelope(http.StatusServiceUnavailable, "coordinator_recovering")(w)
				return true
			}
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startCluster(t, t.TempDir(), 1, ttl)
			var mu sync.Mutex
			var refused []time.Time // journal POSTs the tap answered, under mu
			var firstRefused shard.Batch
			tap := tapCluster(t, c, func(n int, b shard.Batch, w http.ResponseWriter) bool {
				mu.Lock()
				defer mu.Unlock()
				answered := tc.journal(n, w)
				if answered {
					if len(refused) == 0 {
						firstRefused = b
					}
					refused = append(refused, time.Now())
				}
				return answered
			})
			id := "refused-" + strings.ReplaceAll(tc.name, "_", "-")
			spec := store.Spec{App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile",
				Runs: 2000, Seed: 7, Workers: 1}
			submitSpec(t, c.ts.URL, id, spec)
			sh := claimShard(t, tap.URL(), "w", time.Minute)
			// Every retry re-sends the dropped batch whole, with whatever the
			// engine finished while the first POST was in flight.
			tr := &http.Transport{}
			w := &shard.Worker{Base: tap.URL(), Name: "w", BatchSize: 2, Client: &http.Client{Transport: tr}}
			if tc.name == "idle" {
				// The first experiment outlasts the idle interval; paced, the
				// engine outlives the outage by a margin. The library run
				// below is neither.
				var stalled atomic.Bool
				core.SetExperimentHook(func(int, *sim.FaultSpec) {
					if !stalled.Swap(true) {
						time.Sleep(ttl / 2)
					}
					time.Sleep(300 * time.Microsecond)
				})
			}
			goroutines := runtime.NumGoroutine()
			start := time.Now()
			err := w.RunShard(context.Background(), sh)
			ran := time.Since(start)
			core.SetExperimentHook(nil)
			seen := tap.seen()

			// Nothing is sent once the shard has returned, and its sender
			// goroutine is gone (the connections' own go with the
			// transport's idle pool).
			tr.CloseIdleConnections()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines after the shard, %d before it", n, goroutines)
			}
			if late := len(tap.seen()); late != len(seen) {
				t.Errorf("%d journal POSTs arrived after the shard returned", late-len(seen))
			}
			if n := len(sh.Indices); n != 2000 {
				t.Fatalf("shard has %d experiments, want the whole campaign", n)
			}

			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Errorf("shard error %v, want %v", err, tc.want)
				}
				if len(seen) != failAt {
					t.Errorf("%d journal POSTs, want %d: nothing may follow the refused one", len(seen), failAt)
				}
				if err != nil && !strings.Contains(err.Error(), ": engine: ") {
					t.Errorf("%v: the engine ran to its end instead of stopping at its next callback", err)
				}
				shipped := 0
				for _, b := range seen {
					shipped += len(b.Records)
				}
				if shipped > 1000 {
					t.Errorf("%d of 2000 records left the worker: the engine kept going after the refusal", shipped)
				}
			} else {
				if err != nil {
					t.Fatalf("the shard gave up on an outage: %v", err)
				}
				waitDone(t, c.ts.URL, id, time.Minute)
				sharded, dups := journalRecords(t, c.st, id)
				local, _, _ := library(t, spec)
				if dups != 0 {
					t.Errorf("%d duplicate exp records", dups)
				}
				diffJournals(t, tc.name, sharded, local)
			}
			if tc.name == "dropped" {
				// POSTs failAt … failAt+drops are one batch: dropped three
				// times, then admitted, under one Seq.
				if len(seen) <= failAt+drops {
					t.Fatalf("%d journal POSTs: the dropped one was not retried %d times", len(seen), drops)
				}
				for i, b := range seen {
					want := i + 1
					if i >= failAt {
						want = max(failAt, i+1-drops)
					}
					if b.Seq != want || (i > failAt-1 && i < failAt+drops && len(b.Records) != len(seen[failAt-1].Records)) {
						t.Errorf("POST %d: seq %d with %d records, want seq %d", i+1, b.Seq, len(b.Records), want)
					}
				}
			}
			if tc.name == "idle" {
				mu.Lock()
				var span time.Duration
				if len(refused) > 0 {
					span = refused[len(refused)-1].Sub(refused[0])
				}
				if span < ttl || ran < outage {
					t.Errorf("%d journal POSTs refused over %v of a %v shard: the outage did not outlast the lease",
						len(refused), span, ran)
				}
				if len(firstRefused.Records) != 0 || firstRefused.Final {
					t.Errorf("the first refused POST carries %d records (final=%v), want the idle worker's empty batch",
						len(firstRefused.Records), firstRefused.Final)
				}
				mu.Unlock()
			}
		})
	}
}

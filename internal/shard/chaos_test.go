package shard_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/plan"
	"gpufi/internal/service"
	"gpufi/internal/shard"
	"gpufi/internal/sim"
	"gpufi/internal/store"
)

// This file is the chaos gate on coordinator fail-over: the coordinator
// is crashed (state dropped, buffered WAL and journal tails deliberately
// lost) at scheduled points mid-campaign and restarted over the same
// store, while the SAME worker processes ride through the outage on
// jittered backoff. The merged journal must come out identical to an
// uninterrupted local run — for a fixed-N campaign, and for an adaptive
// one, whose rounds are shard generations.

// chaosProxy gives workers one stable address across coordinator
// lifetimes. While no lifetime is attached the handler aborts the
// connection without a response, which is what a SIGKILLed process looks
// like from the client side: a transport error, not a status code.
type chaosProxy struct {
	ln       net.Listener
	hs       *http.Server
	h        atomic.Pointer[http.Handler]
	inflight atomic.Int64 // requests inside a lifetime's handler (or about to look for one)

	// tap, when set before the first request, is called with every journal
	// POST — numbered from 1 in arrival order — before the request looks
	// for a lifetime: it may delay it, or answer (or drop) it in the
	// coordinator's place and return true. batches keeps what it saw.
	tap     func(n int, b shard.Batch, w http.ResponseWriter) bool
	mu      sync.Mutex
	batches []shard.Batch
}

func newChaosProxy(t *testing.T) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln}
	p.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.inflight.Add(1)
		defer p.inflight.Add(-1)
		if p.tap != nil && strings.HasSuffix(r.URL.Path, "/journal") {
			raw, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(raw))
			var b shard.Batch
			if err := json.Unmarshal(raw, &b); err != nil {
				t.Errorf("journal POST does not decode: %v", err)
			}
			p.mu.Lock()
			p.batches = append(p.batches, b)
			n := len(p.batches)
			p.mu.Unlock()
			if p.tap(n, b, w) {
				return
			}
		}
		if h := p.h.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		panic(http.ErrAbortHandler)
	})}
	go p.hs.Serve(ln)
	t.Cleanup(func() { p.hs.Close() })
	return p
}

func (p *chaosProxy) URL() string { return "http://" + p.ln.Addr().String() }

// seen returns the journal POSTs the tap has been shown so far.
func (p *chaosProxy) seen() []shard.Batch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]shard.Batch(nil), p.batches...)
}

func (p *chaosProxy) set(h http.Handler) {
	if h == nil {
		p.h.Store(nil)
		return
	}
	p.h.Store(&h)
}

// sever detaches the lifetime and waits out the requests already inside
// it, so what the caller reads next is what the corpse will leave behind.
func (p *chaosProxy) sever() {
	p.set(nil)
	for p.inflight.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// startChaosLifetime is startLifetime without an httptest server: the
// chaos proxy fronts the handler instead, so the address survives the
// lifetime.
func startChaosLifetime(t *testing.T, dir string, shards int, ttl time.Duration) *lifetime {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.BatchSize = 8
	co := shard.NewCoordinator(st, shard.Options{ShardsPerCampaign: shards, LeaseTTL: ttl})
	srv := service.New(st, service.Options{Workers: 2, Coordinator: co})
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	return &lifetime{st: st, co: co, srv: srv}
}

// startChaosWorker launches a worker tuned for fast outage cycles: a
// short poll so the test wall-clock stays short.
func startChaosWorker(ctx context.Context, base, name string) chan struct{} {
	w := &shard.Worker{Base: base, Name: name, BatchSize: 2, Poll: 5 * time.Millisecond}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	return done
}

// killWhen crashes the lifetime once cond holds, severing the proxy first
// so no request straddles the corpse. Reports whether the kill landed —
// false means the campaign finished before the condition came true.
func killWhen(t *testing.T, l *lifetime, p *chaosProxy, id string, cond func() bool, within time.Duration) bool {
	t.Helper()
	finished := func() bool {
		info, err := l.st.Inspect(id)
		return err == nil && info.Done
	}
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			// Sever, THEN look: a campaign that finalized between an earlier
			// look and the crash would count as a landed kill with nothing
			// left to rebuild.
			p.sever()
			if finished() {
				p.set(l.srv.Handler())
				return false
			}
			l.crash()
			return true
		}
		if finished() {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("kill condition never became true")
	return false
}

// chaosWaitDone is waitDone hardened for lifetimes: transport errors are
// the outage in progress, not a failure. It is only called once the final
// lifetime is up, so a terminal failed/cancelled state is a real bug.
func chaosWaitDone(t *testing.T, base, id string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/campaigns/" + id)
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch st.State {
		case "done":
			return
		case "failed", "cancelled":
			t.Fatalf("campaign %s ended %s in the final lifetime: %s", id, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish within %v of the final restart", id, within)
}

// TestChaosCoordinatorCrash kills the coordinator twice per campaign —
// once just after batches start landing (merged-but-unsynced journal
// tail), once deep mid-ingest — restarts it over the same store, and
// asserts the differential invariant: the merged journal is identical to
// an uninterrupted single-process run byte for byte, every experiment
// exactly once, no shard stranded, and the adaptive arm's plan report is
// the local run's. The backlog arm holds every journal POST back at the
// proxy, and lets through none in the first lifetime and the POSTs of one
// shard in the second. Its experiments are paced at 5 ms, so a sender,
// woken at its shard's second record, has cut its first POST long before
// the engine is done: each worker's engine finishes its ~24-experiment
// shard (batch size 2) while that POST is parked, the first kill lands with
// both senders parked and the engines a shard ahead, and the second lands
// once the restarted coordinator has taken one shard's backlog and synced
// part of it, the other shard still parked.
func TestChaosCoordinatorCrash(t *testing.T) {
	arms := []struct {
		name         string
		adaptive     bool
		kill1, kill2 int64         // Batches threshold per lifetime
		hold         time.Duration // backlog arm: every journal POST waits this long at the proxy, then maybe parks
		shards       int
	}{
		{name: "forked", kill1: 1, kill2: 5, shards: 4},
		{name: "adaptive", adaptive: true, kill1: 2, kill2: 5, shards: 4},
		{name: "backlog", kill2: 1, hold: 100 * time.Millisecond, shards: 2},
	}
	for _, a := range arms {
		a := a
		t.Run(a.name, func(t *testing.T) {
			dir := t.TempDir()
			p := newChaosProxy(t)
			var held atomic.Int64 // journal POSTs that sat out the hold
			var life atomic.Int64 // coordinator lifetimes killed so far
			if a.hold > 0 {
				defer core.SetExperimentHook(core.SetExperimentHook(func(int, *sim.FaultSpec) {
					time.Sleep(5 * time.Millisecond)
				}))
				var mu sync.Mutex
				admitted := map[int64]map[string]bool{} // per lifetime: the shards whose POSTs go through
				p.tap = func(_ int, b shard.Batch, _ http.ResponseWriter) bool {
					time.Sleep(a.hold)
					held.Add(1)
					at := p.h.Load()
					if at == nil {
						return false // between lifetimes: the connection drops
					}
					mu.Lock()
					n := life.Load()
					if admitted[n] == nil {
						admitted[n] = map[string]bool{}
					}
					let := n >= 2 || admitted[n][b.Shard] || len(admitted[n]) < int(n)
					if let {
						admitted[n][b.Shard] = true
					}
					mu.Unlock()
					// Parked until the kill: the POST then meets the dead
					// lifetime as a dropped connection.
					for !let && p.h.Load() == at {
						time.Sleep(time.Millisecond)
					}
					return false
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w1 := startChaosWorker(ctx, p.URL(), "cw1")
			w2 := startChaosWorker(ctx, p.URL(), "cw2")

			id := "chaos-" + a.name
			spec := store.Spec{
				App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile",
				Runs: 48, Seed: 13, Workers: 2,
			}
			body := map[string]any{
				"id": id, "app": spec.App, "gpu": spec.GPU, "kernel": spec.Kernel,
				"structure": spec.Structure, "runs": spec.Runs, "seed": spec.Seed,
				"workers": spec.Workers,
			}
			if a.adaptive {
				spec.Runs = 200
				spec.Plan = &plan.Rule{TargetCI: 0.12, Confidence: 0.95, MinRuns: 40}
				body["runs"] = spec.Runs
				body["plan"] = map[string]any{"target_ci": 0.12, "confidence": 0.95, "min_runs": 40}
			}

			l := startChaosLifetime(t, dir, a.shards, 5*time.Second)
			p.set(l.srv.Handler())
			submit(t, p.URL(), body)

			kills := 0
			for i, threshold := range []int64{a.kill1, a.kill2} {
				co := l.co
				n := threshold
				cond := func() bool { return co.Stats().Batches >= n }
				if i == 0 && a.hold > 0 {
					// Both senders parked on their first POST, the engines
					// given a hold to run ahead of them.
					cond = func() bool { return held.Load() >= int64(a.shards) }
				}
				if !killWhen(t, l, p, id, cond, 2*time.Minute) {
					break // finished before the kill point — nothing left to crash
				}
				kills++
				l = startChaosLifetime(t, dir, a.shards, 5*time.Second)
				life.Add(1)
				p.set(l.srv.Handler())
			}
			chaosWaitDone(t, p.URL(), id, 3*time.Minute)

			// A kill after batches landed implies a durable plan, so every
			// restart that followed one must have REBUILT, not replanned.
			if kills > 0 && l.co.Stats().WALRebuilds < 1 {
				t.Errorf("%d kills landed but the final lifetime rebuilt nothing", kills)
			}
			t.Logf("%s: %d kills landed, final lifetime rebuilds=%d fenced=%d",
				a.name, kills, l.co.Stats().WALRebuilds, l.co.Stats().LeasesFenced)

			// Workers must still be alive (parked-and-resumed, never dead):
			// shut them down deliberately and wait for a clean exit.
			cancel()
			for _, done := range []chan struct{}{w1, w2} {
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("worker did not exit after cancel — stuck or dead")
				}
			}

			// Differential arm: the same spec, uninterrupted, one process.
			local, _, lib := library(t, spec)
			sharded, dups := journalRecords(t, l.st, id)
			if dups != 0 {
				t.Errorf("%d duplicate exp records survived the chaos merge", dups)
			}
			diffJournals(t, a.name, sharded, local)
			info, err := l.st.Inspect(id)
			if err != nil {
				t.Fatal(err)
			}
			samePlan(t, a.name, info, lib.Plan)
			if a.adaptive {
				if lib.Plan == nil || lib.Plan.Skipped == 0 {
					t.Errorf("the adaptive arm no longer stops early: %+v", lib.Plan)
				}
			} else {
				for i := 0; i < spec.Runs; i++ {
					if _, ok := sharded[fmt.Sprintf("exp:%d", i)]; !ok {
						t.Errorf("experiment %d stranded by the crashes", i)
					}
				}
				if a.hold == 0 {
					writeChaosDigest(t, a.name, sharded)
				} else {
					// Same spec as the forked arm, so no digest line of its own.
					backlog := 0 // the most experiments one POST carried
					for _, b := range p.seen() {
						exps := 0
						for _, rec := range b.Records {
							if rec.Kind == shard.KindExp {
								exps++
							}
						}
						backlog = max(backlog, exps)
					}
					if kills < 2 || backlog < 20 {
						t.Errorf("%d kills landed and the largest POST carried %d experiments: the engines never ran ten batches ahead of a parked sender",
							kills, backlog)
					}
				}
			}

			l.srv.Close()
		})
	}
}

// writeChaosDigest appends a deterministic digest of the post-chaos
// merged journal to $CHAOS_DIGEST_FILE (when set), for the CI artifact.
func writeChaosDigest(t *testing.T, label string, recs map[string][]byte) {
	t.Helper()
	path := os.Getenv("CHAOS_DIGEST_FILE")
	if path == "" {
		return
	}
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write(recs[k])
		h.Write([]byte{'\n'})
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "%s chaos-%s %d-records\n", hex.EncodeToString(h.Sum(nil)), label, len(recs))
}

package shard_test

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"gpufi/internal/shard"
	"gpufi/internal/sim"
)

// TestSoakFinishedCampaignsAreTombstones is the proof that steady-state
// memory is flat: a few hundred small campaigns through one store,
// coordinator, HTTP server and two workers, with the live heap, the
// claim-scan queue and the goroutine count at the end held to what they
// were after the first twenty. The restart arm swaps the coordinator (and
// the service around it) for a fresh one over the same store halfway: what
// recovery brings back is the unfinished work, never the merge state of
// campaigns that are done.
func TestSoakFinishedCampaignsAreTombstones(t *testing.T) {
	campaigns, settle := 200, 20
	if testing.Short() {
		campaigns = 40
	}
	for _, restart := range []bool{false, true} {
		name := "steady"
		if restart {
			name = "restart"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			p := newChaosProxy(t)
			l := startChaosLifetime(t, dir, 4, time.Minute)
			p.set(l.srv.Handler())
			var stop func()
			startWorkers := func() {
				ctx, cancel := context.WithCancel(context.Background())
				var done []chan struct{}
				for _, name := range []string{"s1", "s2"} {
					w := &shard.Worker{Base: p.URL(), Name: name, BatchSize: 4, Poll: 2 * time.Millisecond}
					d := make(chan struct{})
					done = append(done, d)
					go func() { defer close(d); w.Run(ctx) }()
				}
				stop = func() {
					cancel()
					for _, d := range done {
						<-d
					}
				}
			}
			startWorkers()
			defer func() {
				stop()
				l.srv.Close()
			}()

			// Reachable bytes, not HeapInuse: the spans the heap holds them in
			// settle 4-5 MB higher over a process's first hundred campaigns
			// however little stays reachable, and then stop moving. Both ends
			// are read in one quiet state, or a 20-campaign window (-short)
			// reads noise: the workers stop, so no HTTP exchange is in flight
			// and no vessel is borrowed; the device pool is drained, because
			// its parked storage keeps each core's arenas at their high-water
			// capacity, which doubles at whichever campaign first needs more
			// warps (230 KB at once on VA) and is the pool's bound, not a
			// campaign's; idle connections close; and two collections empty
			// the sync.Pool victim caches (net/http's 32 KB copy buffers).
			heap := func() int64 {
				stop()
				sim.DrainPool()
				http.DefaultClient.CloseIdleConnections()
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return int64(ms.HeapAlloc)
			}
			var heapAt, goroutinesAt = int64(0), 0
			sinceRestart := 0
			for i := 1; i <= campaigns; i++ {
				id := fmt.Sprintf("soak-%03d", i)
				submit(t, p.URL(), map[string]any{
					"id": id, "app": "VA", "gpu": "RTX2060", "kernel": "va_add", "structure": "regfile",
					"runs": 16, "seed": i, "workers": 1, "trace": i%5 == 0,
				})
				chaosWaitDone(t, p.URL(), id, time.Minute)
				sinceRestart++

				scanned, tracked, live := l.co.Footprint()
				if scanned != 0 || live != 0 || tracked != sinceRestart {
					t.Fatalf("after campaign %d: claim scan walks %d campaigns, %d of %d tracked still hold merge state (want 0, 0 of %d)",
						i, scanned, live, tracked, sinceRestart)
				}
				if i == settle {
					heapAt, goroutinesAt = heap(), runtime.NumGoroutine()
					startWorkers()
				}
				if restart && i == campaigns/2 {
					p.sever()
					l.srv.Close()
					l = startChaosLifetime(t, dir, 4, time.Minute)
					p.set(l.srv.Handler())
					sinceRestart = 0
					if _, tracked, _ := l.co.Footprint(); tracked != 0 {
						t.Fatalf("restart over %d finished campaigns resurrected %d of them", i, tracked)
					}
				}
			}

			// A tombstone and a finished job are under 4 KB; this campaign's
			// merge state alone would be four times that.
			const perCampaign = 8 << 10
			if end := heap(); end-heapAt > int64(campaigns-settle)*perCampaign {
				t.Errorf("live heap %d KB after %d campaigns, %d KB after %d: a finished campaign keeps %d bytes, want under %d",
					end>>10, campaigns, heapAt>>10, settle, (end-heapAt)/int64(campaigns-settle), perCampaign)
			}
			// Per-shard sender goroutines, per-campaign job and
			// SSE machinery: all gone. Closed connections take a moment.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutinesAt && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutinesAt {
				t.Errorf("%d goroutines after %d campaigns, %d after %d", n, campaigns, goroutinesAt, settle)
			}
		})
	}
}

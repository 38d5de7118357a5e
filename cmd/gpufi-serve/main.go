// Command gpufi-serve runs fault-injection campaigns as a service: an
// HTTP API over the durable campaign store, with a bounded FIFO job queue
// feeding a pool of supervised campaign runners.
//
// Campaigns are submitted as JSON specs, observed live over SSE, and
// journaled to disk as they run. On startup the service scans its data
// directory and resumes every campaign that has a journal but no
// completion marker, so a killed server loses at most one fsync batch of
// experiments. A job whose attempt panics is retried with exponential
// backoff before being failed; a worker that dies is restarted by its
// supervisor.
//
// The API is versioned under /v1; only the probe and scrape endpoints
// (/healthz, /readyz, /metrics) are unversioned.
//
// SIGINT or SIGTERM drains gracefully: intake stops (readyz flips to
// 503), queued and running campaigns finish, then the server exits. A
// second signal — or the -drain-timeout deadline — cancels the in-flight
// campaigns instead; their journals stay resumable.
//
//	gpufi-serve -addr :8080 -data gpufi-data
//
//	curl -X POST localhost:8080/v1/campaigns -d '{"app":"VA","gpu":"RTX2060",
//	    "kernel":"va_add","structure":"regfile","runs":3000,"seed":42}'
//	curl localhost:8080/v1/campaigns/<id>           # status + live counts
//	curl 'localhost:8080/v1/campaigns?limit=50'     # paginated listing
//	curl -N localhost:8080/v1/campaigns/<id>/events # SSE progress
//	curl localhost:8080/v1/campaigns/<id>/log       # JSONL journal
//	curl localhost:8080/v1/campaigns/<id>/trace     # propagation traces ("trace":true specs)
//	curl -X DELETE localhost:8080/v1/campaigns/<id>
//	curl localhost:8080/metrics                     # flat JSON counters
//	curl 'localhost:8080/metrics?format=prom'       # Prometheus text exposition
//	curl localhost:8080/healthz localhost:8080/readyz
//
// # Distributed mode
//
// -mode selects the node's role:
//
//   - local (default): campaigns run in this process, as before.
//   - coordinator: campaigns are partitioned into shards along
//     snapshot-cluster boundaries and leased to worker nodes over
//     POST /v1/shards/claim; workers stream journal batches back and the
//     coordinator merges them into the store. The journal, resume, and
//     cancellation semantics are identical to local mode.
//   - worker: no store, no API — the process claims shards from
//     -coordinator, runs them with the local engine, and streams results
//     back until killed. Workers are stateless and disposable: a killed
//     worker's lease expires and its shard is re-issued.
//
// Either side can die. A coordinator journals its shard plans and lease
// grants to a per-campaign control WAL; restarted with the same -data
// directory it resumes in-flight sharded campaigns, rebuilds the shard
// table, and fences out pre-crash leases with monotonic epochs (stale
// workers get a typed 409 and re-claim). While a campaign's state is
// being rebuilt, shard requests answer 503 coordinator_recovering with a
// Retry-After. A worker that loses its coordinator parks in jittered
// exponential backoff (-backoff-base/-backoff-max) and resumes when the
// coordinator returns, re-sending unacknowledged batches through the
// idempotent merge path; mid-shard it gives up after -outage-budget.
//
//	gpufi-serve -mode coordinator -addr :8080 -data gpufi-data
//	gpufi-serve -mode worker -coordinator http://host:8080 -worker-name w1
//
// With -debug-addr the net/http/pprof endpoints are served on a separate
// listener for CPU/heap profiling of a live service.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpufi/internal/obs"
	"gpufi/internal/service"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// watchSIGQUIT dumps the process-wide flight ring — the last few thousand
// span records, crash-safe in memory — to path every time SIGQUIT lands.
// kill -QUIT of a wedged node yields a timeline of its final moments
// instead of (only) a goroutine dump.
func watchSIGQUIT(path string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			if n, err := obs.Flight().DumpTo(path); err != nil {
				log.Printf("SIGQUIT: flight dump to %s failed: %v", path, err)
			} else {
				log.Printf("SIGQUIT: dumped %d flight records to %s", n, path)
			}
		}
	}()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi-serve: ")
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dataDir = flag.String("data", "gpufi-data", "campaign store directory")
		workers = flag.Int("workers", 2, "concurrent campaign runners")
		queue   = flag.Int("queue", 64, "submission queue depth")
		batch   = flag.Int("fsync-batch", store.DefaultBatchSize, "journal records per fsync")
		retries = flag.Int("max-retries", 3, "re-runs of a job whose attempt panicked (negative = none)")
		drainTO = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight campaigns on SIGINT/SIGTERM")
		debug   = flag.String("debug-addr", "", "serve net/http/pprof profiling on this address (e.g. localhost:6060; empty = off)")

		mode       = flag.String("mode", "local", "node role: local, coordinator, or worker")
		coordURL   = flag.String("coordinator", "", "coordinator base URL (worker mode), e.g. http://host:8080")
		workerName = flag.String("worker-name", "", "worker identity in coordinator logs (default: hostname)")
		leaseTTL   = flag.Duration("lease-ttl", 15*time.Second, "shard lease TTL before a silent worker's shard is re-issued (coordinator mode)")
		nShards    = flag.Int("shards-per-campaign", 8, "max shards a campaign is split into (coordinator mode)")
		shardBatch = flag.Int("shard-batch", 64, "journal records that trigger a batch POST; one carries all that accumulated behind the last (worker mode)")

		backoffBase  = flag.Duration("backoff-base", 100*time.Millisecond, "initial retry delay against an unreachable coordinator (worker mode)")
		backoffMax   = flag.Duration("backoff-max", 5*time.Second, "retry delay ceiling during a coordinator outage (worker mode)")
		outageBudget = flag.Duration("outage-budget", 2*time.Minute, "how long a worker mid-shard waits out a coordinator outage before abandoning the shard (worker mode)")

		flightPath = flag.String("flight", "", "flight-recorder dump path for SIGQUIT (default <data>/flight.jsonl; worker mode: gpufi-flight.jsonl)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// The pprof endpoints run on their own listener so profiling is never
	// exposed on the public API address by accident.
	if *debug != "" {
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof profiling on %s/debug/pprof/", *debug)
			if err := http.ListenAndServe(*debug, dm); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	if *mode == "worker" {
		if *flightPath == "" {
			*flightPath = "gpufi-flight.jsonl"
		}
		watchSIGQUIT(*flightPath)
		runWorker(*coordURL, *workerName, *shardBatch, *backoffBase, *backoffMax, *outageBudget, logger)
		return
	}
	if *mode != "local" && *mode != "coordinator" {
		log.Fatalf("unknown -mode %q (want local, coordinator, or worker)", *mode)
	}

	st, err := store.Open(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	st.BatchSize = *batch
	if *flightPath == "" {
		*flightPath = st.FlightPath()
	}
	watchSIGQUIT(*flightPath)

	opts := service.Options{
		Workers: *workers, QueueDepth: *queue, MaxRetries: *retries,
		Logger: logger,
	}
	if *mode == "coordinator" {
		opts.Coordinator = shard.NewCoordinator(st, shard.Options{
			LeaseTTL: *leaseTTL, ShardsPerCampaign: *nShards, Logger: logger,
		})
	}
	srv := service.New(st, opts)

	// The pool runs under the background context: shutdown goes through the
	// drain below, not through cancelling every campaign the instant a
	// signal lands.
	resumed, err := srv.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range resumed {
		log.Printf("resuming interrupted campaign %s", id)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("%v: draining — intake stopped, finishing queued and running campaigns", sig)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		go func() {
			sig := <-sigCh
			log.Printf("%v again: cancelling in-flight campaigns (journals stay resumable)", sig)
			cancel()
		}()
		if err := srv.Drain(drainCtx); err != nil {
			log.Printf("drain cut short (%v); in-flight campaigns cancelled, journals stay resumable", err)
		} else {
			log.Print("drained cleanly")
		}
		shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
		defer stop()
		hs.Shutdown(shutdownCtx)
	}()

	log.Printf("serving campaigns on %s (mode: %s, store: %s, %d workers)", *addr, *mode, *dataDir, *workers)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	srv.Close()
}

// runWorker runs the process as a stateless shard worker: claim, execute,
// stream back, repeat, until SIGINT/SIGTERM. A coordinator outage parks
// the worker in jittered exponential backoff instead of killing it.
func runWorker(coordURL, name string, batchSize int, backoffBase, backoffMax, outageBudget time.Duration, logger *slog.Logger) {
	if coordURL == "" {
		log.Fatal("-mode worker requires -coordinator URL")
	}
	if name == "" {
		name, _ = os.Hostname()
		if name == "" {
			name = "worker"
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &shard.Worker{
		Base: coordURL, Name: name, BatchSize: batchSize, Logger: logger,
		BackoffBase: backoffBase, BackoffMax: backoffMax, OutageBudget: outageBudget,
		Client: &http.Client{Timeout: 30 * time.Second},
	}
	log.Printf("worker %s pulling shards from %s", name, coordURL)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Fatal(err)
	}
	log.Print("worker stopped")
}

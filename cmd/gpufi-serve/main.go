// Command gpufi-serve runs fault-injection campaigns as a service: an
// HTTP API over the durable campaign store, with a bounded FIFO job queue
// feeding a pool of campaign runners.
//
// Campaigns are submitted as JSON specs, observed live over SSE, and
// journaled to disk as they run. On startup the service scans its data
// directory and resumes every campaign whose control log holds no done or
// cancel record, so a killed server loses at most one fsync batch of
// experiments. A job runs once: a panic inside it fails that job, with its
// stack in the log, and a simulator panic inside one experiment is
// quarantined as that experiment's outcome.
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
// -mode selects the node's role. Every campaign runs the same way: it is
// partitioned into shards along snapshot-cluster boundaries, the shards are
// leased to workers, and the coordinator merges the journal batches they
// stream back into the store. The modes differ only in where the workers
// live:
//
//   - local (default): -workers shard workers run inside this process and
//     call its coordinator directly, with no HTTP between them. The node
//     still answers the /v1/shards routes, so worker nodes may join it.
//   - coordinator: no workers in this process; worker nodes claim shards
//     over POST /v1/shards/claim and stream journal batches back over
//     HTTP. The journal, resume, and cancellation semantics are identical
//     to local mode.
//   - worker: no store, no API — the process claims shards from
//     -coordinator, runs them with the local engine, and streams results
//     back until killed. Workers are stateless and disposable: a killed
//     worker's lease expires and its shard is re-issued.
//
// Either side can die. A coordinator — a local node too — journals its
// shard plans and lease grants to a per-campaign control WAL; restarted
// with the same -data directory it resumes in-flight campaigns, rebuilds
// the shard table, and fences out pre-crash leases with monotonic epochs
// (stale workers get a typed 409 and re-claim). A local node's leases live
// two seconds, not -lease-ttl: its workers died with it, so a restart
// waits that long before it re-issues their shards. While a campaign's
// state is being rebuilt, shard requests answer 503 coordinator_recovering
// with a Retry-After. A worker that loses its coordinator parks in jittered
// exponential backoff (100 ms doubling to 5 s) for as long as the outage
// lasts, idle or mid-shard, and resumes when the coordinator returns,
// re-sending unacknowledged batches through the idempotent merge path.
//
//	gpufi-serve -mode coordinator -addr :8080 -data gpufi-data
//	gpufi-serve -mode worker -coordinator http://host:8080 -worker-name w1
//
// With -debug-addr the net/http/pprof endpoints are served on a separate
// listener for CPU/heap profiling of a live service. SIGQUIT dumps the
// process's flight ring to <data>/flight.jsonl, next to the dumps of panics
// and recoveries (worker mode: gpufi-flight.jsonl in the working
// directory).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpufi/internal/cli"
	"gpufi/internal/obs"
	"gpufi/internal/service"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

func main() {
	os.Exit(cli.Exit("gpufi-serve", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// node is gpufi-serve's command line: the role it runs, and the options of
// the service, coordinator and worker it builds, which the flags fill in.
type node struct {
	mode, addr, data, debug string
	drain                   time.Duration
	service                 service.Options
	coord                   shard.Options
	worker                  shard.Worker
}

// flags declares the command line on n.
func (n *node) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("gpufi-serve", flag.ContinueOnError)
	fs.StringVar(&n.addr, "addr", ":8080", "listen address")
	fs.StringVar(&n.data, "data", "gpufi-data", "campaign store directory")
	fs.IntVar(&n.service.Workers, "workers", 2, "concurrent campaign runners; in local mode also the number of in-process shard workers")
	fs.IntVar(&n.service.QueueDepth, "queue", 64, "submission queue depth")
	fs.DurationVar(&n.drain, "drain-timeout", 30*time.Second, "grace period for in-flight campaigns on SIGINT/SIGTERM")
	fs.StringVar(&n.debug, "debug-addr", "", "serve net/http/pprof profiling on this address (e.g. localhost:6060; empty = off)")

	fs.StringVar(&n.mode, "mode", "local", "node role: local, coordinator, or worker")
	fs.StringVar(&n.worker.Base, "coordinator", "", "coordinator base URL (worker mode), e.g. http://host:8080")
	fs.StringVar(&n.worker.Name, "worker-name", "", "worker identity in coordinator logs (default: hostname)")
	fs.DurationVar(&n.coord.LeaseTTL, "lease-ttl", 15*time.Second, "shard lease TTL before a silent worker's shard is re-issued (coordinator mode)")
	fs.IntVar(&n.coord.ShardsPerCampaign, "shards-per-campaign", 8, "max shards a campaign is split into (coordinator mode)")
	return fs
}

// watchSIGQUIT dumps the process-wide flight ring — the last few thousand
// span records, crash-safe in memory — to path every time SIGQUIT lands,
// until the returned stop is called. kill -QUIT of a wedged node yields a
// timeline of its final moments instead of (only) a goroutine dump.
func watchSIGQUIT(logf *log.Logger, path string) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			if n, err := obs.Flight().DumpTo(path); err != nil {
				logf.Printf("SIGQUIT: flight dump to %s failed: %v", path, err)
			} else {
				logf.Printf("SIGQUIT: dumped %d flight records to %s", n, path)
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}

// run serves until SIGINT or SIGTERM, logging to stderr.
func run(args []string, _, stderr io.Writer) error {
	n := new(node)
	if err := cli.Parse(n.flags(), args, stderr); err != nil {
		return err
	}
	logf := log.New(stderr, "gpufi-serve: ", 0)
	logger := slog.New(slog.NewTextHandler(stderr, nil))

	// The pprof endpoints run on their own listener so profiling is never
	// exposed on the public API address by accident.
	if n.debug != "" {
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logf.Printf("pprof profiling on %s/debug/pprof/", n.debug)
			if err := http.ListenAndServe(n.debug, dm); err != nil {
				logf.Printf("debug server: %v", err)
			}
		}()
	}

	switch n.mode {
	case "worker":
		return runWorker(&n.worker, logf, logger)
	case "local", "coordinator":
	default:
		return fmt.Errorf("unknown -mode %q (want local, coordinator, or worker)", n.mode)
	}
	st, err := store.Open(n.data)
	if err != nil {
		return err
	}
	defer watchSIGQUIT(logf, st.FlightPath())()

	n.service.Logger = logger
	if n.mode == "coordinator" {
		n.coord.Logger = logger
		n.service.Coordinator = shard.NewCoordinator(st, n.coord)
	}
	srv := service.New(st, n.service)

	// The pool runs under the background context: shutdown goes through the
	// drain below, not through cancelling every campaign the instant a
	// signal lands.
	resumed, err := srv.Start(context.Background())
	if err != nil {
		return err
	}
	for _, id := range resumed {
		logf.Printf("resuming interrupted campaign %s", id)
	}

	hs := &http.Server{Addr: n.addr, Handler: srv.Handler()}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		sig := <-sigCh
		logf.Printf("%v: draining — intake stopped, finishing queued and running campaigns", sig)
		drainCtx, cancel := context.WithTimeout(context.Background(), n.drain)
		defer cancel()
		go func() {
			sig := <-sigCh
			logf.Printf("%v again: cancelling in-flight campaigns (journals stay resumable)", sig)
			cancel()
		}()
		if err := srv.Drain(drainCtx); err != nil {
			logf.Printf("drain cut short (%v); in-flight campaigns cancelled, journals stay resumable", err)
		} else {
			logf.Print("drained cleanly")
		}
		shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
		defer stop()
		hs.Shutdown(shutdownCtx)
	}()

	logf.Printf("serving campaigns on %s (mode: %s, store: %s, %d workers)", n.addr, n.mode, n.data, n.service.Workers)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srv.Close()
	return nil
}

// runWorker runs the process as a stateless shard worker: claim, execute,
// stream back, repeat, until SIGINT/SIGTERM. A coordinator outage parks
// the worker in jittered exponential backoff instead of killing it.
func runWorker(w *shard.Worker, logf *log.Logger, logger *slog.Logger) error {
	if w.Base == "" {
		return errors.New("-mode worker requires -coordinator URL")
	}
	if w.Name == "" {
		w.Name, _ = os.Hostname()
		if w.Name == "" {
			w.Name = "worker"
		}
	}
	w.Client, w.Logger = &http.Client{Timeout: 30 * time.Second}, logger
	defer watchSIGQUIT(logf, "gpufi-flight.jsonl")()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logf.Printf("worker %s pulling shards from %s", w.Name, w.Base)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	logf.Print("worker stopped")
	return nil
}

// Command gpufi runs gpuFI-4 fault-injection campaigns from the command
// line — the role of the paper's front-end bash script. It profiles a
// benchmark on a GPU model, runs one campaign point (kernel x structure x
// multiplicity), prints the fault-effect breakdown, and optionally writes
// the JSONL experiment log. With -trace it also records fault-propagation
// traces — where each fault landed, whether it was ever read, and how it
// spread before classification — summarizable with gpufi-report -why.
//
// SIGINT cancels the campaign: in-flight experiments stop promptly, and
// whatever finished is still reported and flushed to the log file.
//
// With -store DIR every campaign point runs through an in-process shard
// coordinator, the way a local gpufi-serve node runs it, and is journaled
// durably as it runs; rerunning an interrupted invocation continues it,
// skipping the experiments already on disk (merged outcomes are
// bit-identical to an uninterrupted run, whatever -workers either run used).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"time"

	"gpufi"
	"gpufi/internal/cli"
	"gpufi/internal/core"
	"gpufi/internal/report"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

func main() { os.Exit(cli.Exit("gpufi", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr)) }

// options is gpufi's command line: the campaign point every kernel runs,
// and what to do around it.
type options struct {
	spec                                     store.Spec
	kernel                                   string
	stats, progress, list                    bool
	logPath, tracePath, instrTrace, storeDir string
	expTimeout                               time.Duration
}

// flags declares the command line on o.
func (o *options) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("gpufi", flag.ContinueOnError)
	fs.StringVar(&o.spec.App, "app", "VA", "benchmark: HS KM SRAD1 SRAD2 LUD BFS PATHF NW GE BP VA SP")
	fs.StringVar(&o.spec.GPU, "gpu", "RTX2060", "GPU model: RTX2060 QuadroGV100 GTXTitan")
	fs.StringVar(&o.kernel, "kernel", "", "target static kernel (default: every kernel of the app)")
	fs.StringVar(&o.spec.Structure, "structure", "regfile", "target: regfile shared local l1d l1t l2 l1c")
	fs.IntVar(&o.spec.Runs, "n", 300, "injections per campaign point")
	fs.IntVar(&o.spec.Bits, "bits", 1, "fault multiplicity (1=single, 3=triple, ...)")
	fs.BoolVar(&o.spec.WarpWide, "warp", false, "warp-granularity injection (regfile/local)")
	fs.IntVar(&o.spec.Blocks, "blocks", 1, "CTAs hit per shared-memory injection")
	fs.Int64Var(&o.spec.Seed, "seed", 1, "campaign seed (results are reproducible)")
	fs.IntVar(&o.spec.Scale, "scale", 1, "benchmark problem-size scale")
	fs.IntVar(&o.spec.L2Queue, "l2queue", 0, "L2 bank service cycles (contention model; 0 = off)")
	fs.IntVar(&o.spec.Workers, "workers", 0, "parallel simulations (0 = all cores)")
	fs.StringVar(&o.logPath, "log", "", "write the JSONL experiment log to this file")
	fs.BoolVar(&o.spec.Lenient, "lenient", false, "GPGPU-Sim-style lazily allocated memory (wild accesses succeed)")
	fs.BoolVar(&o.spec.ECC, "ecc", false, "enable SEC-DED ECC on all structures (protection ablation)")
	fs.BoolVar(&o.stats, "stats", false, "print the memory-system statistics of the fault-free run")
	fs.BoolVar(&o.progress, "progress", false, "print one dot per finished experiment")
	fs.StringVar(&o.tracePath, "trace", "", "record fault-propagation traces (JSONL; with -store they land in the campaign directory)")
	fs.StringVar(&o.instrTrace, "instr-trace", "", "write the fault-free instruction trace to this file (slow)")
	fs.BoolVar(&o.list, "list", false, "list benchmarks and kernels, then exit")
	fs.StringVar(&o.storeDir, "store", "", "journal campaigns durably into this directory (crash-safe)")
	fs.DurationVar(&o.expTimeout, "exp-timeout", 0, "wall-clock deadline per experiment (0 = none); expiry classifies as quarantined Timeout")
	fs.Float64Var(&o.spec.TargetCI, "target-ci", 0, "adaptive early stop: halt each campaign point once its 99% interval half-width is at most this (0 = fixed -n runs)")
	return fs
}

// run executes the command line args: the report goes to stdout, flag
// diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := o.flags()
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if o.expTimeout%time.Millisecond != 0 {
		fmt.Fprintf(stderr, "invalid value %q for flag -exp-timeout: not a whole number of milliseconds\n", o.expTimeout)
		fs.Usage()
		return cli.ErrUsage
	}
	o.spec.ExpTimeoutMS = o.expTimeout.Milliseconds()
	o.spec.Trace = o.tracePath != ""

	if o.list {
		for _, a := range gpufi.Apps() {
			fmt.Fprintf(stdout, "%-7s kernels: %v\n", a.Name, a.Kernels)
		}
		return nil
	}

	// SIGINT cancels the campaign context; a second SIGINT kills the
	// process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	app, err := gpufi.AppByNameScale(o.spec.App, o.spec.Scale)
	if err != nil {
		return err
	}
	gpu, err := gpufi.CardByName(o.spec.GPU)
	if err != nil {
		return err
	}
	gpu.LenientMemory = o.spec.Lenient
	gpu.ECC = o.spec.ECC
	gpu.L2QueueCycles = o.spec.L2Queue
	st, err := gpufi.ParseStructure(o.spec.Structure)
	if err != nil {
		return err
	}

	var n *node
	if o.storeDir != "" {
		cs, err := store.Open(o.storeDir)
		if err != nil {
			return err
		}
		n = startNode(ctx, cs)
		defer n.stop()
	}

	fmt.Fprintf(stdout, "profiling %s on %s...\n", app.Name, gpu.Name)
	var prof *gpufi.AppProfile
	if n != nil {
		// The node's campaigns then plan and run against this profile.
		prof, err = n.co.Profile(ctx, app, o.spec.Scale, gpu)
	} else {
		prof, err = gpufi.Profile(ctx, app, gpu)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fault-free execution: %d cycles, kernels %v\n\n", prof.TotalCycles, prof.KernelOrder)
	if o.stats || o.instrTrace != "" {
		dev, err := gpufi.NewDevice(gpu)
		if err != nil {
			return err
		}
		var traceFile *os.File
		if o.instrTrace != "" {
			if traceFile, err = os.Create(o.instrTrace); err != nil {
				return err
			}
			defer traceFile.Close()
			dev.TraceWriter = traceFile
		}
		if _, err := app.Run(dev); err != nil {
			return err
		}
		if traceFile != nil {
			fmt.Fprintf(stdout, "instruction trace: %s\n", o.instrTrace)
		}
		if o.stats {
			fmt.Fprintln(stdout, dev.StatsReport())
		}
	}

	kernels := prof.KernelOrder
	if o.kernel != "" {
		kernels = []string{o.kernel}
	}

	var logFile *os.File
	if o.logPath != "" {
		var err error
		if logFile, err = os.Create(o.logPath); err != nil {
			return err
		}
		defer logFile.Close()
	}

	// Propagation traces: in direct mode they stream to the -trace file;
	// with -store the coordinator journals them into the campaign directory
	// (<store>/<id>/traces.jsonl) with the batches that carry them, and the
	// -trace value only switches tracing on.
	var traceEnc *json.Encoder
	if o.tracePath != "" && n == nil {
		tf, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		defer tf.Close()
		traceEnc = json.NewEncoder(tf)
	}

	tb := &report.Table{
		Title: fmt.Sprintf("%s / %s / %s, %d-bit faults, %d runs per kernel",
			app.Name, gpu.Name, st, o.spec.Bits, o.spec.Runs),
		Header: []string{"kernel", "Masked", "SDC", "Crash", "Timeout", "Performance", "FR (Eq.1)", "99% margin", "99% CI"},
	}
	var total gpufi.Counts
	var planLines []string
	cancelled := false
	for _, k := range kernels {
		var traces []gpufi.ExperimentTrace
		spec := o.spec
		spec.Kernel = k
		res, err := runPoint(ctx, stdout, n, spec, prof, func(e gpufi.Experiment) {
			if traceEnc != nil {
				traces = append(traces, *e.Trace)
			}
			if o.progress {
				fmt.Fprint(stdout, ".")
			}
		})
		if o.progress {
			fmt.Fprintln(stdout)
		}
		if err != nil {
			// Cancellation still yields the finished experiments; anything
			// else is fatal.
			if !errors.Is(err, context.Canceled) || res == nil {
				return err
			}
			cancelled = true
		}
		// The -log file is written per campaign point, experiments sorted
		// by id — byte-identical with and without -store and across worker
		// counts for the same seed. (For crash-safe incremental journaling
		// use -store; its journal is in merge order and sorted on read.)
		if logFile != nil {
			if err := store.WriteLog(logFile, res); err != nil {
				return err
			}
		}
		// Same contract for the -trace file: sorted by id, so traced runs
		// diff clean across worker counts too. (The -store trace journal
		// is in merge order instead.)
		if traceEnc != nil {
			sort.Slice(traces, func(i, j int) bool { return traces[i].ID < traces[j].ID })
			for i := range traces {
				if err := traceEnc.Encode(traces[i]); err != nil {
					return err
				}
			}
		}
		c := res.Counts
		addRow(tb, k, c)
		total.Merge(c)
		if res.Plan != nil {
			planLines = append(planLines, fmt.Sprintf(
				"adaptive %s: simulated %d, analytic %d, skipped %d of %d (half-width %.4f, target %.4f)",
				k, res.Plan.Simulated, res.Plan.Analytic, res.Plan.Skipped, o.spec.Runs,
				res.Plan.HalfWidth, res.Plan.TargetCI))
		}
		if cancelled {
			fmt.Fprintf(stdout, "interrupted: %s finished %d of %d experiments; partial results follow\n",
				k, c.Total(), o.spec.Runs)
			if n != nil {
				fmt.Fprintf(stdout, "journal saved in %s — rerun the same command to continue\n", o.storeDir)
			}
			break
		}
	}
	if len(kernels) > 1 {
		addRow(tb, "TOTAL", total)
	}
	if err := tb.Render(stdout); err != nil {
		return err
	}
	for _, line := range planLines {
		fmt.Fprintln(stdout, line)
	}
	if o.logPath != "" {
		fmt.Fprintf(stdout, "\nexperiment log: %s\n", o.logPath)
	}
	if o.tracePath != "" {
		if n != nil {
			fmt.Fprintf(stdout, "propagation traces: %s/<id>/traces.jsonl (summarize with gpufi-report -why)\n", o.storeDir)
		} else {
			fmt.Fprintf(stdout, "propagation traces: %s (summarize with gpufi-report -why)\n", o.tracePath)
		}
	}
	if cancelled {
		return cli.ErrInterrupted
	}
	return nil
}

// addRow renders one tally as a table row, closing with the 99% Wilson
// interval on the failure ratio.
func addRow(tb *report.Table, name string, c gpufi.Counts) {
	lo, hi := gpufi.Wilson(c.Failures(), c.Total(), 0.99)
	tb.AddRow(name,
		fmt.Sprint(c.Masked), fmt.Sprint(c.SDC), fmt.Sprint(c.Crash),
		fmt.Sprint(c.Timeout), fmt.Sprint(c.Performance),
		fmt.Sprintf("%.4f", c.FailureRatio()),
		fmt.Sprintf("±%.4f", gpufi.Margin(c.Failures(), c.Total(), 0.99)),
		fmt.Sprintf("[%.4f, %.4f]", lo, hi))
}

// node is the -store path's local node, built the way gpufi-serve builds
// one: a shard coordinator over the store and one worker that calls it in
// process. Each round of a campaign is one shard: with one worker, a second
// shard would only add a drain at the shard boundary.
type node struct {
	st     *store.Store
	co     *shard.Coordinator
	cancel context.CancelFunc
	exited chan struct{} // closed when the worker's goroutine returns
}

// leaseTTL is a node's lease TTL. Its one worker is the only claimant, and it
// claims only between shards, so a lease that runs out mid-shard is never
// re-issued: while a command runs the TTL only paces the worker's batch
// sender, which posts after a third of it without one. A rerun after an
// interrupt does not wait it out: its worker has the interrupted one's name,
// and claiming, gets back at once the shard the control log restores to it.
const leaseTTL = 300 * time.Millisecond

// startNode starts a node over st whose worker runs until ctx ends or stop.
func startNode(ctx context.Context, st *store.Store) *node {
	ctx, cancel := context.WithCancel(ctx)
	n := &node{st: st, co: shard.NewCoordinator(st,
		shard.Options{LeaseTTL: leaseTTL, ShardsPerCampaign: 1}),
		cancel: cancel, exited: make(chan struct{})}
	go func() {
		defer close(n.exited)
		(&shard.Worker{Coordinator: n.co, Name: "local-1"}).Run(ctx)
	}()
	return n
}

// stop stops the node's worker and waits for its goroutine to return.
func (n *node) stop() {
	n.cancel()
	<-n.exited
}

// runPoint runs one campaign point, handing observe every experiment it
// finishes. Without a node the point runs straight on the engine. With one
// it runs through the node's coordinator, which journals each batch of
// experiments before its worker hears back, and a campaign already on disk
// continues where its journal stops (or, when it is done, reports its
// journaled outcomes).
func runPoint(ctx context.Context, stdout io.Writer, n *node, spec store.Spec,
	prof *gpufi.AppProfile, observe func(gpufi.Experiment)) (*gpufi.CampaignResult, error) {

	if n == nil {
		cfg, err := spec.Config()
		if err != nil {
			return nil, err
		}
		cfg.Sink = func(e core.Experiment) error {
			observe(e)
			return nil
		}
		return core.RunCampaign(ctx, cfg, prof)
	}
	id := spec.ID()
	if n.st.Exists(id) {
		info, err := n.st.Inspect(id)
		if err != nil {
			return nil, err
		}
		if info.Done {
			fmt.Fprintf(stdout, "campaign %s already complete in the store; reporting journaled outcomes\n", id)
		} else {
			fmt.Fprintf(stdout, "resuming %s: %d of %d experiments already journaled\n",
				id, info.Completed, spec.Runs)
		}
	}
	return n.co.Run(ctx, id, spec, observe)
}

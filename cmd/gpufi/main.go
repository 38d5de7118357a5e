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
// With -store DIR every campaign point is journaled durably as it runs;
// an interrupted invocation can be continued with -resume, skipping the
// experiments already on disk (merged outcomes are bit-identical to an
// uninterrupted run).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"

	"gpufi"
	"gpufi/internal/report"
	"gpufi/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi: ")
	var (
		appName   = flag.String("app", "VA", "benchmark: HS KM SRAD1 SRAD2 LUD BFS PATHF NW GE BP VA SP")
		gpuName   = flag.String("gpu", "RTX2060", "GPU model: RTX2060 QuadroGV100 GTXTitan")
		kernel    = flag.String("kernel", "", "target static kernel (default: every kernel of the app)")
		structure = flag.String("structure", "regfile", "target: regfile shared local l1d l1t l2 l1c")
		runs      = flag.Int("n", 300, "injections per campaign point")
		bits      = flag.Int("bits", 1, "fault multiplicity (1=single, 3=triple, ...)")
		warpWide  = flag.Bool("warp", false, "warp-granularity injection (regfile/local)")
		blocks    = flag.Int("blocks", 1, "CTAs hit per shared-memory injection")
		seed      = flag.Int64("seed", 1, "campaign seed (results are reproducible)")
		scale     = flag.Int("scale", 1, "benchmark problem-size scale")
		l2queue   = flag.Int("l2queue", 0, "L2 bank service cycles (contention model; 0 = off)")
		workers   = flag.Int("workers", 0, "parallel simulations (0 = all cores)")
		logPath   = flag.String("log", "", "write the JSONL experiment log to this file")
		lenient   = flag.Bool("lenient", false, "GPGPU-Sim-style lazily allocated memory (wild accesses succeed)")
		ecc       = flag.Bool("ecc", false, "enable SEC-DED ECC on all structures (protection ablation)")
		stats     = flag.Bool("stats", false, "print the memory-system statistics of the fault-free run")
		progress  = flag.Bool("progress", false, "print one dot per finished experiment")
		tracePath = flag.String("trace", "", "record fault-propagation traces (JSONL; with -store they land in the campaign directory)")
		instTrace = flag.String("instr-trace", "", "write the fault-free instruction trace to this file (slow)")
		listApps  = flag.Bool("list", false, "list benchmarks and kernels, then exit")
		storeDir  = flag.String("store", "", "journal campaigns durably into this directory (crash-safe)")
		resume    = flag.Bool("resume", false, "with -store: continue interrupted campaigns, skipping journaled experiments")
		expTO     = flag.Duration("exp-timeout", 0, "wall-clock deadline per experiment (0 = none); expiry classifies as quarantined Timeout")
		targetCI  = flag.Float64("target-ci", 0, "adaptive early stop: halt each campaign point once its 99% interval half-width is at most this (0 = fixed -n runs)")
	)
	flag.Parse()
	if *resume && *storeDir == "" {
		log.Fatal("-resume requires -store")
	}

	if *listApps {
		for _, a := range gpufi.Apps() {
			fmt.Printf("%-7s kernels: %v\n", a.Name, a.Kernels)
		}
		return
	}

	// SIGINT cancels the campaign context; a second SIGINT kills the
	// process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	app, err := gpufi.AppByNameScale(*appName, *scale)
	if err != nil {
		log.Fatal(err)
	}
	gpu, err := gpufi.CardByName(*gpuName)
	if err != nil {
		log.Fatal(err)
	}
	gpu.LenientMemory = *lenient
	gpu.ECC = *ecc
	gpu.L2QueueCycles = *l2queue
	st, err := gpufi.ParseStructure(*structure)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("profiling %s on %s...\n", app.Name, gpu.Name)
	prof, err := gpufi.Profile(ctx, app, gpu)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-free execution: %d cycles, kernels %v\n\n", prof.TotalCycles, prof.KernelOrder)
	if *stats || *instTrace != "" {
		dev, err := gpufi.NewDevice(gpu)
		if err != nil {
			log.Fatal(err)
		}
		var traceFile *os.File
		if *instTrace != "" {
			if traceFile, err = os.Create(*instTrace); err != nil {
				log.Fatal(err)
			}
			dev.TraceWriter = traceFile
		}
		if _, err := app.Run(dev); err != nil {
			log.Fatal(err)
		}
		if traceFile != nil {
			traceFile.Close()
			fmt.Printf("instruction trace: %s\n", *instTrace)
		}
		if *stats {
			fmt.Println(dev.StatsReport())
		}
	}

	kernels := prof.KernelOrder
	if *kernel != "" {
		kernels = []string{*kernel}
	}

	var lw *gpufi.LogWriter
	if *logPath != "" {
		logFile, err := os.Create(*logPath)
		if err != nil {
			log.Fatal(err)
		}
		defer logFile.Close()
		lw = gpufi.NewLogWriter(logFile)
	}

	var cstore *store.Store
	if *storeDir != "" {
		if cstore, err = store.Open(*storeDir); err != nil {
			log.Fatal(err)
		}
	}

	// Propagation traces: in direct mode they stream to the -trace file;
	// with -store the store journals them into the campaign directory
	// (<store>/<id>/traces.jsonl) and the -trace value only switches
	// tracing on.
	var traceEnc *json.Encoder
	if *tracePath != "" && cstore == nil {
		tf, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer tf.Close()
		traceEnc = json.NewEncoder(tf)
	}

	tb := &report.Table{
		Title: fmt.Sprintf("%s / %s / %s, %d-bit faults, %d runs per kernel",
			app.Name, gpu.Name, st, *bits, *runs),
		Header: []string{"kernel", "Masked", "SDC", "Crash", "Timeout", "Performance", "FR (Eq.1)", "99% margin", "99% CI"},
	}
	var total gpufi.Counts
	var planLines []string
	cancelled := false
	for _, k := range kernels {
		var res *gpufi.CampaignResult
		var traces []gpufi.ExperimentTrace
		if cstore != nil {
			res, err = runStored(ctx, cstore, *resume, store.Spec{
				App: *appName, Scale: *scale, GPU: *gpuName, Kernel: k,
				Structure: *structure, Runs: *runs, Bits: *bits,
				WarpWide: *warpWide, Blocks: *blocks, Seed: *seed,
				Workers: *workers,
				Lenient: *lenient, ECC: *ecc, L2Queue: *l2queue,
				ExpTimeoutMS: expTO.Milliseconds(),
				Trace:        *tracePath != "",
				TargetCI:     *targetCI,
			}, prof, *progress)
		} else {
			opts := []gpufi.CampaignOption{
				gpufi.WithTarget(app, gpu, k, st),
				gpufi.WithRuns(*runs),
				gpufi.WithBits(*bits),
				gpufi.WithWarpWide(*warpWide),
				gpufi.WithBlocks(*blocks),
				gpufi.WithSeed(*seed),
				gpufi.WithWorkers(*workers),
				gpufi.WithExpTimeout(*expTO),
				gpufi.WithProfile(prof),
			}
			if *targetCI != 0 {
				opts = append(opts, gpufi.WithPlan(&gpufi.PlanRule{TargetCI: *targetCI}))
			}
			if traceEnc != nil {
				opts = append(opts, gpufi.WithTrace(func(t gpufi.ExperimentTrace) error {
					traces = append(traces, t)
					return nil
				}))
			}
			if *progress {
				opts = append(opts, gpufi.WithProgress(func(gpufi.Experiment) {
					fmt.Print(".")
					os.Stdout.Sync()
				}))
			}
			res, err = gpufi.NewCampaign(opts...).Run(ctx)
		}
		if *progress {
			fmt.Println()
		}
		if err != nil {
			// Cancellation still yields the finished experiments; anything
			// else is fatal.
			if !errors.Is(err, context.Canceled) || res == nil {
				log.Fatal(err)
			}
			cancelled = true
		}
		// The -log file is written per campaign point, experiments sorted
		// by id — byte-identical across engines and worker counts for the
		// same seed. (For crash-safe incremental journaling use -store;
		// its journal is in completion order and merge-sorted on read.)
		if lw != nil {
			if err := lw.Result(res); err != nil {
				log.Fatal(err)
			}
		}
		// Same contract for the -trace file: sorted by id, so traced runs
		// diff clean across engines too. (The -store trace journal streams
		// in completion order instead.)
		if traceEnc != nil {
			sort.Slice(traces, func(i, j int) bool { return traces[i].ID < traces[j].ID })
			for i := range traces {
				if err := traceEnc.Encode(traces[i]); err != nil {
					log.Fatal(err)
				}
			}
		}
		c := res.Counts
		tb.AddRow(k,
			fmt.Sprint(c.Masked), fmt.Sprint(c.SDC), fmt.Sprint(c.Crash),
			fmt.Sprint(c.Timeout), fmt.Sprint(c.Performance),
			fmt.Sprintf("%.4f", c.FailureRatio()),
			fmt.Sprintf("±%.4f", gpufi.Margin(c.Failures(), c.Total(), 0.99)),
			ciCell(c))
		total.Merge(c)
		if res.Plan != nil {
			planLines = append(planLines, fmt.Sprintf(
				"adaptive %s: simulated %d, analytic %d, skipped %d of %d (half-width %.4f, target %.4f)",
				k, res.Plan.Simulated, res.Plan.Analytic, res.Plan.Skipped, *runs,
				res.Plan.HalfWidth, res.Plan.TargetCI))
		}
		if cancelled {
			fmt.Printf("interrupted: %s finished %d of %d experiments; partial results follow\n",
				k, c.Total(), *runs)
			if cstore != nil {
				fmt.Printf("journal saved in %s — rerun with -resume to continue\n", *storeDir)
			}
			break
		}
	}
	if len(kernels) > 1 {
		tb.AddRow("TOTAL",
			fmt.Sprint(total.Masked), fmt.Sprint(total.SDC), fmt.Sprint(total.Crash),
			fmt.Sprint(total.Timeout), fmt.Sprint(total.Performance),
			fmt.Sprintf("%.4f", total.FailureRatio()),
			fmt.Sprintf("±%.4f", gpufi.Margin(total.Failures(), total.Total(), 0.99)),
			ciCell(total))
	}
	if err := tb.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	for _, line := range planLines {
		fmt.Println(line)
	}
	if *logPath != "" {
		fmt.Printf("\nexperiment log: %s\n", *logPath)
	}
	if *tracePath != "" {
		if cstore != nil {
			fmt.Printf("propagation traces: %s/<id>/traces.jsonl (summarize with gpufi-report -why)\n", *storeDir)
		} else {
			fmt.Printf("propagation traces: %s (summarize with gpufi-report -why)\n", *tracePath)
		}
	}
	if cancelled {
		os.Exit(130)
	}
}

// ciCell renders the 99% Wilson interval on the failure ratio as a table
// cell.
func ciCell(c gpufi.Counts) string {
	lo, hi := gpufi.Wilson(c.Failures(), c.Total(), 0.99)
	return fmt.Sprintf("[%.4f, %.4f]", lo, hi)
}

// runStored executes one campaign point through the durable store: the
// journal is fsync'd in batches as experiments finish, and an id that is
// already on disk is resumed (with -resume) or refused, never silently
// restarted from scratch.
func runStored(ctx context.Context, cstore *store.Store, resume bool,
	spec store.Spec, prof *gpufi.AppProfile, progress bool) (*gpufi.CampaignResult, error) {

	id := spec.ID()
	if cstore.Exists(id) {
		info, err := cstore.Inspect(id)
		if err != nil {
			return nil, err
		}
		switch {
		case info.Done:
			fmt.Printf("campaign %s already complete in the store; reporting journaled outcomes\n", id)
		case !resume:
			return nil, fmt.Errorf("campaign %s has a partial journal (%d experiments); pass -resume to continue it",
				id, info.Completed)
		default:
			fmt.Printf("resuming %s: %d of %d experiments already journaled\n",
				id, info.Completed, spec.Runs)
		}
	}
	var onExp func(gpufi.Experiment)
	if progress {
		onExp = func(gpufi.Experiment) {
			fmt.Print(".")
			os.Stdout.Sync()
		}
	}
	return cstore.Run(ctx, id, spec, prof, onExp)
}

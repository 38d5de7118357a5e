package core

import (
	"context"
	"syscall"
	"testing"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/obs"
	"gpufi/internal/sim"
)

// benchPoint is the campaign the benchmarks here start from: 300
// register-file injections into the last invocation of BP's bp_adjust
// kernel — a late injection window, where replaying the fault-free prefix
// hurts most.
func benchPoint(b *testing.B) (*CampaignConfig, *Profile) {
	b.Helper()
	app, err := bench.ByName("BP")
	if err != nil {
		b.Fatal(err)
	}
	gpu := config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		b.Fatal(err)
	}
	return &CampaignConfig{
		App: app, GPU: gpu, Kernel: "bp_adjust", Structure: sim.StructRegFile,
		Runs: 300, Bits: 1, Seed: 5,
		Invocation: len(prof.Kernels["bp_adjust"].Windows),
	}, prof
}

// BenchmarkCampaignForkVsReplay runs the benchmark point on the
// snapshot-and-fork engine and on the full-replay oracle. Each iteration
// verifies the two produce bit-identical Counts and reports the wall-clock
// speedup, plus the cost of propagation tracing and of span
// instrumentation on the fork engine. It fails on any outcome
// disagreement, which is what CI runs one iteration of it for; the ratios
// it prints are reading matter, not gates.
func BenchmarkCampaignForkVsReplay(b *testing.B) {
	base, prof := benchPoint(b)
	// spanCtx enables the distributed-tracing spans (engine phase spans to
	// a discarding sink), the way a sharded worker runs; nil ctx is the
	// spans-off arm. The sink cost is deliberately near-zero so the ratio
	// isolates the instrumentation itself.
	spanCtx := obs.ContextWithSink(
		obs.ContextWithNode(obs.ContextWithTrace(context.Background(), obs.NewTraceID()), "bench"),
		func(obs.SpanRecord) {})
	type engine func(context.Context, *CampaignConfig, *Profile) (*CampaignResult, error)
	run := func(ctx context.Context, eng engine, trace bool) (*CampaignResult, time.Duration) {
		cfg := *base
		if trace {
			cfg.Trace = true
			cfg.Sink = func(Experiment) error { return nil }
		}
		t0 := time.Now()
		res, err := eng(ctx, &cfg, prof)
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(t0)
	}
	var forkTime, replayTime, tracedTime, spansTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The fork, traced, and spans arms run twice, keeping the per-pair
		// minimum: the overhead ratios below compare short wall-clock
		// measurements, and min-of-two strips some of the scheduler noise.
		fork, tf1 := run(nil, RunCampaign, false)
		replay, tr := run(nil, replayCampaign, false)
		traced, tt1 := run(nil, RunCampaign, true)
		spanned, ts1 := run(spanCtx, RunCampaign, false)
		_, tf2 := run(nil, RunCampaign, false)
		_, tt2 := run(nil, RunCampaign, true)
		_, ts2 := run(spanCtx, RunCampaign, false)
		if fork.Counts != replay.Counts {
			b.Fatalf("fork engine disagrees with the replay oracle: %+v vs %+v", fork.Counts, replay.Counts)
		}
		if traced.Counts != fork.Counts {
			b.Fatalf("tracing perturbed outcomes: traced %+v vs untraced %+v", traced.Counts, fork.Counts)
		}
		if spanned.Counts != fork.Counts {
			b.Fatalf("span instrumentation perturbed outcomes: spanned %+v vs untraced %+v", spanned.Counts, fork.Counts)
		}
		forkTime += min(tf1, tf2)
		replayTime += tr
		tracedTime += min(tt1, tt2)
		spansTime += min(ts1, ts2)
	}
	b.ReportMetric(forkTime.Seconds()/float64(b.N), "fork-s/op")
	b.ReportMetric(replayTime.Seconds()/float64(b.N), "replay-s/op")
	b.ReportMetric(tracedTime.Seconds()/float64(b.N), "traced-s/op")
	b.ReportMetric(float64(replayTime)/float64(forkTime), "speedup-x")
	overhead := float64(tracedTime)/float64(forkTime) - 1
	b.ReportMetric(overhead*100, "trace-overhead-%")
	spanOverhead := float64(spansTime)/float64(forkTime) - 1
	b.ReportMetric(spanOverhead*100, "span-overhead-%")
}

var benchSpec *sim.FaultSpec

// BenchmarkMaskGenSpec times deriving one single-bit register-file spec:
// a re-seed of the generator and three draws.
func BenchmarkMaskGenSpec(b *testing.B) {
	gen, err := NewMaskGen(sim.StructRegFile, []sim.CycleWindow{{Start: 100, End: 9000}}, 24*32, 1, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSpec = gen.Spec(i)
	}
}

// BenchmarkPlanCampaign times the deterministic front half of one
// service-sharded campaign — 5,000 specs at the benchmark point — which
// the coordinator and every shard each derive in full.
func BenchmarkPlanCampaign(b *testing.B) {
	cfg, prof := benchPoint(b)
	cfg.Runs = 5000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := planCampaign(cfg, prof)
		if err != nil {
			b.Fatal(err)
		}
		benchSpec = plan.specs[len(plan.specs)-1]
	}
}

// BenchmarkPlanClusters times packing a 10,000-run plan at the benchmark
// point into snapshot clusters, the serial step before any worker starts.
func BenchmarkPlanClusters(b *testing.B) {
	cfg, prof := benchPoint(b)
	cfg.Runs, cfg.Seed = 10000, 7
	cp, err := planCampaign(cfg, prof)
	if err != nil {
		b.Fatal(err)
	}
	points := []*point{{cfg: cfg, plan: cp, pending: cp.pending}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(planClusters(points)) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkEvaluateMatrix is one pass of the performance ledger's
// eval-matrix workload — Evaluate of SRAD2, HS, BP and KM, 40 runs per
// point, seed 7, two workers — with the numbers that explain its speed:
// snapshot captures per experiment, simulated experiments per cluster, how
// many CPUs the pass kept busy (cpu_s / wall_s) and what it spent
// (cpu-s/pass), how long the workers sat blocked waiting for a cluster's
// snapshot (await-ms/pass, summed over both, reported only), and what the
// copy-on-write protocol moved — full captures and full restores per pass,
// bytes per experiment — which is what tells a gain of the prefix/worker
// overlap from a loss in the delta protocol under it. Each pass must
// reproduce the ledger's exact outcome counts, and may not take more full
// legs than its devices need: two templates for each of the four
// applications, and the full restores the engine took when this bound was
// written.
func BenchmarkEvaluateMatrix(b *testing.B) {
	gpu := config.RTX2060()
	var apps []*bench.App
	for _, n := range []string{"SRAD2", "HS", "BP", "KM"} {
		app, err := bench.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, app)
	}
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			b.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	want := avf.Counts{Masked: 1147, SDC: 36, Crash: 16, Performance: 1}
	before, cpu0, await0 := EngineStats(), cpuTime(), awaitHist.Sum()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got avf.Counts
		for _, app := range apps {
			ev, err := EvaluateApp(nil, app, gpu, EvalConfig{Runs: 40, Seed: 7, Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			for _, ke := range ev.Kernels {
				for _, sa := range ke.Structs {
					got.Merge(sa.Counts)
				}
			}
		}
		if got != want {
			b.Fatalf("eval-matrix outcome counts moved: %+v, want %+v", got, want)
		}
	}
	wall, cpu, after, await := b.Elapsed(), cpuTime()-cpu0, EngineStats(), awaitHist.Sum()-await0
	exps := float64(want.Total() * b.N)
	captures := float64(after.SnapshotCaptures - before.SnapshotCaptures)
	b.ReportMetric(captures/exps, "captures/exp")
	forked := after.SnapshotRestores - before.SnapshotRestores + after.RestoresChained - before.RestoresChained
	b.ReportMetric(float64(forked)/captures, "exps/cluster")
	b.ReportMetric(cpu.Seconds()/wall.Seconds(), "busy-cpus")
	b.ReportMetric(cpu.Seconds()/float64(b.N), "cpu-s/pass")
	b.ReportMetric(await*1e3/float64(b.N), "await-ms/pass")
	b.ReportMetric(exps/wall.Seconds(), "exps/s")
	fullCaptures := float64(after.COWFullCaptures-before.COWFullCaptures) / float64(b.N)
	fullRestores := float64(after.COWFullRestores-before.COWFullRestores) / float64(b.N)
	b.ReportMetric(fullCaptures, "full-captures/pass")
	b.ReportMetric(fullRestores, "full-restores/pass")
	b.ReportMetric(float64(after.COWBytesCopied-before.COWBytesCopied)/exps, "cow-bytes/exp")
	if fullCaptures > 8 || fullRestores > 22 {
		b.Fatalf("eval-matrix took %.1f full captures and %.1f full restores per pass, want at most 8 and 22",
			fullCaptures, fullRestores)
	}
	inert, dead := after.EarlyStopsInert-before.EarlyStopsInert, after.EarlyStopsDead-before.EarlyStopsDead
	stopped := inert + dead + after.EarlyStopsOverwritten - before.EarlyStopsOverwritten +
		after.EarlyStopsRetired - before.EarlyStopsRetired
	b.ReportMetric(float64(stopped)/exps, "stopped/exp")
	b.ReportMetric(float64(after.SuffixCyclesSkipped-before.SuffixCyclesSkipped)/exps, "skipped-cycles/exp")
	b.ReportMetric(float64(after.RestoresChained-before.RestoresChained)/exps, "chained/exp")
	// Which faults are inert, and which land on a register that is dead where
	// its lane stands, is decided by the seed alone, so the counts are exact:
	// of a pass's 1,120 simulated experiments 703 flip only invalid cache
	// lines or find no live target, and 184 of the 240 that flip a register
	// hit one that is dead.
	if wantInert, wantDead := int64(703*b.N), int64(184*b.N); inert != wantInert || dead != wantDead {
		b.Fatalf("eval-matrix early stops over %d pass(es): %d inert, %d dead on arrival, want %d and %d",
			b.N, inert, dead, wantInert, wantDead)
	}
}

// BenchmarkCampaignLate is one pass of the performance ledger's
// campaign-late workload — 10,000 register-file injections into the last
// invocation of BP's bp_adjust, seed 7, two workers — with the counts that
// explain its speed: how many experiments restored a snapshot and how many
// carried on from the state their vessel held (chained), how many stopped
// dead on arrival, and how many cycles a fork simulated per experiment. Each
// pass must reproduce the ledger's exact outcome counts, and the structure
// behind the speed may not erode: at most a restore for every four
// experiments and 110 simulated cycles each.
func BenchmarkCampaignLate(b *testing.B) {
	cfg, prof := benchPoint(b)
	cfg.Runs, cfg.Seed, cfg.Workers = 10000, 7, 2
	want := avf.Counts{Masked: 8656, SDC: 855, Crash: 489}
	before, cyclesBefore := EngineStats(), sim.SnapshotTimings().ForkCycles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunCampaign(nil, cfg, prof)
		if err != nil {
			b.Fatal(err)
		}
		if res.Counts != want {
			b.Fatalf("campaign-late outcome counts moved: %+v, want %+v", res.Counts, want)
		}
	}
	after, exps := EngineStats(), float64(cfg.Runs*b.N)
	restores := float64(after.SnapshotRestores-before.SnapshotRestores) / exps
	cycles := float64(sim.SnapshotTimings().ForkCycles-cyclesBefore) / exps
	b.ReportMetric(exps/b.Elapsed().Seconds(), "exps/s")
	b.ReportMetric(restores, "restores/exp")
	b.ReportMetric(float64(after.RestoresChained-before.RestoresChained)/exps, "chained/exp")
	b.ReportMetric(float64(after.EarlyStopsDead-before.EarlyStopsDead)/exps, "dead/exp")
	b.ReportMetric(cycles, "sim-cycles/exp")
	if restores > 0.25 || cycles > 110 {
		b.Fatalf("campaign-late took %.3f restores and %.1f simulated cycles per experiment, want at most 0.25 and 110", restores, cycles)
	}
}

package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"gpufi"
	"gpufi/internal/core"
	"gpufi/internal/obs"
)

// metric is one named number with its unit; samples are the per-pass
// values the median was taken over, when there are any.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Passes    int               `json:"passes"`
	Metrics   map[string]metric `json:"metrics"`
	Exact     exact             `json:"exact"`
	Notes     []string          `json:"notes,omitempty"`
	HotSpots  []hotSpot         `json:"hot_spots,omitempty"`
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runConfig is what a run is asked to do.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	short    bool   // tiny sizes, one pass: the unit-test smoke
	tmp      string // scratch directory for the durable store
	spansDir string // where the traced run writes <workload>.spans.jsonl ("" = nowhere)
	log      io.Writer
}

// setupReps is how many times an untraced run sets the workload up; the
// reported set-up time is the median, so one slow start does not decide it.
const setupReps = 3

// engineWorkers is the number of simulating goroutines every workload
// keeps busy: Workers: 2, or two shard workers at workers: 1.
const engineWorkers = 2

func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	sz, ps := fullSizes(), fullProbeSizes()
	if cfg.short {
		sz, ps = shortSizes(), shortProbeSizes()
	}
	res := &runResult{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced,
		Correct: true, Metrics: map[string]metric{}}
	var err error
	if cfg.traced {
		err = runTraced(ctx, cfg, sz, ps, res)
	} else {
		err = runUntraced(ctx, cfg, sz, res)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.short {
		checkExpected(res)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// startWorkload sets the workload up and runs the untimed warm-up pass.
func startWorkload(ctx context.Context, cfg runConfig, sz sizes, rec *recorder) (workload, passResult, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, sz, cfg.tmp)
	if err != nil {
		return nil, passResult{}, err
	}
	if err := w.setup(ctx, rec); err != nil {
		w.close()
		return nil, passResult{}, fmt.Errorf("set-up of %s: %v", cfg.workload, err)
	}
	return w, w.pass(ctx, nil), nil
}

// passLog accumulates the timed passes of a run and applies the per-pass
// output checks: the checks of the pass itself, and that the exact
// statistics equal those of the first pass seen (the warm-up).
type passLog struct {
	res   *runResult
	first *exact

	wall, cpu, campaign []float64
	ops, kinstr         []float64
}

func (l *passLog) check(p passResult, label string) bool {
	ok := p.ok
	if !p.ok {
		l.res.note("%s: %s", label, p.note)
	}
	if l.first == nil {
		e := p.exact
		l.first = &e
	} else if !p.exact.equal(*l.first) {
		l.res.note("%s: simulated statistics differ from the first pass", label)
		ok = false
	}
	if !ok {
		l.res.Correct = false
	}
	return ok
}

func (l *passLog) add(p passResult, wall, cpu float64, label string) {
	ok := l.check(p, label)
	l.res.Passes++
	l.res.Attempted += p.ops
	l.res.Failed += failedOps(p.ops, p.lost, ok)
	l.res.Exact = p.exact
	l.wall = append(l.wall, wall)
	l.cpu = append(l.cpu, cpu)
	l.ops = append(l.ops, float64(p.ops))
	l.kinstr = append(l.kinstr, p.kinstr)
	if p.seconds > 0 {
		l.campaign = append(l.campaign, p.seconds)
	} else {
		l.campaign = append(l.campaign, wall)
	}
}

func per(num, den []float64, scale float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		out[i] = scale * num[i] / den[i]
	}
	return out
}

// fastest is a run's timed value: the sample of its fastest pass — the
// highest throughput, the lowest cost. On a shared host interference only
// ever slows a pass down, and for tens of seconds at a time, so the
// fastest of a run's passes repeats from run to run about twice as well as
// their median (README, "Run-to-run noise"). Every sample is kept, and the
// median is printed beside the value.
func fastest(v []float64, unit string, higher bool) metric {
	m := metric{Unit: unit, Samples: v}
	for i, x := range v {
		if i == 0 || (higher && x > m.Value) || (!higher && x < m.Value) {
			m.Value = x
		}
	}
	return m
}

// runUntraced measures the end-to-end metrics: set-up three times (the
// median is reported), then passes for cfg.seconds (the fastest is).
func runUntraced(ctx context.Context, cfg runConfig, sz sizes, res *runResult) error {
	log := &passLog{res: res}
	var w workload
	var setups []float64
	reps := setupReps
	if cfg.short {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		start := time.Now()
		if r == 0 {
			start = procStart
		}
		if w != nil {
			w.close()
		}
		var warm passResult
		var err error
		if w, warm, err = startWorkload(ctx, cfg, sz, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		log.check(warm, fmt.Sprintf("warm-up %d", r))
	}
	defer w.close()

	began := time.Now()
	for i := 0; i == 0 || (!cfg.short && time.Since(began).Seconds() < cfg.seconds); i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		start, cpu := time.Now(), cpuSeconds()
		p := w.pass(ctx, nil)
		log.add(p, time.Since(start).Seconds(), cpuSeconds()-cpu, fmt.Sprintf("pass %d", i))
	}

	res.Metrics["exp_per_s"] = fastest(per(log.ops, log.wall, 1), "1/s", true)
	res.Metrics["sim_kinstr_per_s"] = fastest(per(log.kinstr, log.wall, 1), "kinstr/s", true)
	res.Metrics["cpu_s_per_kexp"] = fastest(per(log.cpu, log.ops, 1e3), "s", false)
	res.Metrics["campaign_s_p50"] = fastest(log.campaign, "s", false)
	res.Metrics["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: setups}
	return nil
}

// layerCounters is one reading of every cumulative counter the per-layer
// metrics are differences of.
type layerCounters struct {
	eng               core.EngineCounters
	mem               runtime.MemStats
	gcCPU, cpu        float64
	fsyncs            int64
	panics, deadlines int64
	workload          map[string]float64
	wall              time.Time
}

func readCounters(w workload) layerCounters {
	c := layerCounters{eng: gpufi.EngineStats(), cpu: cpuSeconds(), workload: w.counters(), wall: time.Now()}
	runtime.ReadMemStats(&c.mem)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = sample[0].Value.Float64()
	}
	// Registration is idempotent: this returns the store's own histogram.
	c.fsyncs = obs.Default().Histogram("gpufi_journal_fsync_seconds", "", nil).Count()
	c.panics, c.deadlines, _ = core.SandboxStats()
	return c
}

// runTraced measures the per-layer metrics: the probes, then passes for
// cfg.seconds alternating untraced and traced, with every cumulative
// counter differenced around them. End-to-end numbers are never taken
// from this run.
func runTraced(ctx context.Context, cfg runConfig, sz sizes, ps probeSizes, res *runResult) error {
	rec := &recorder{}
	rec.setPass(-1)
	w, warm, err := startWorkload(ctx, cfg, sz, rec)
	if err != nil {
		return err
	}
	defer w.close()
	log := &passLog{res: res}
	log.check(warm, "warm-up")

	m := map[string]float64{}
	if err := runProbes(ctx, rec, cfg.seed, ps, cfg.tmp, m); err != nil {
		return err
	}

	before := readCounters(w)
	var plain, traced []float64
	began := time.Now()
	for i := 0; i < 2 || (!cfg.short && time.Since(began).Seconds() < cfg.seconds); i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r := rec
		if i%2 == 0 {
			r = nil
		}
		rec.setPass(i)
		start, cpu := time.Now(), cpuSeconds()
		p := w.pass(ctx, r)
		wall := time.Since(start).Seconds()
		log.add(p, wall, cpuSeconds()-cpu, fmt.Sprintf("pass %d", i))
		if r == nil {
			plain = append(plain, wall)
		} else {
			traced = append(traced, wall)
		}
	}
	after := readCounters(w)
	layerMetrics(m, before, after, log, w)
	m["obs.trace_overhead_ratio"] = median(traced) / median(plain)

	// The tables rank the traced passes only; set-up and probe spans
	// (pass -1) are harness activity and go to the span file alone.
	spans := rec.finish()
	var inPass []span
	for _, s := range spans {
		if s.Pass >= 0 {
			inPass = append(inPass, s)
		}
	}
	rows, byLayer := rankSpans(inPass)
	res.HotSpots = rows[:min(len(rows), 3)]
	printSpanTables(cfg.log, len(inPass), rows, byLayer)
	if cfg.spansDir != "" {
		if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.spansDir, cfg.workload+".spans.jsonl")
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Fprintf(cfg.log, "wrote %d spans to %s\n", len(spans), path)
	}

	for _, d := range perLayerMetrics {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return nil
}

// layerMetrics turns the counter differences around the timed passes into
// the workload-dependent per-layer metrics.
func layerMetrics(m map[string]float64, a, b layerCounters, log *passLog, w workload) {
	var ops float64
	for _, n := range log.ops {
		ops += n
	}
	perExp := func(v float64) float64 { return v / max(ops, 1) }
	wall := b.wall.Sub(a.wall).Seconds()
	cpu := b.cpu - a.cpu
	sec := func(nanos int64) float64 { return float64(nanos) / 1e9 }
	exec := sec(b.eng.ExecuteNanos - a.eng.ExecuteNanos)
	restore := sec(b.eng.SnapshotRestoreNanos - a.eng.SnapshotRestoreNanos)
	capture := sec(b.eng.SnapshotCaptureNanos - a.eng.SnapshotCaptureNanos)
	fork := sec(b.eng.ForkNanos - a.eng.ForkNanos)
	classify := sec(b.eng.ClassifyNanos - a.eng.ClassifyNanos)
	capacity := wall * engineWorkers
	m["core.exec_cpu_share"] = exec / capacity
	m["core.restore_cpu_share"] = restore / capacity
	m["core.capture_cpu_share"] = capture / capacity
	m["core.fork_cpu_share"] = fork / capacity
	m["core.classify_cpu_share"] = classify / capacity

	// Reconciliation against the process's CPU time. The restore timer
	// runs inside the execute timer (a fork restores when its replay
	// reaches the snapshot's launch), so restore is not added again; fork,
	// classify and capture are disjoint from execute and from each other.
	attributed := exec + fork + classify + capture
	simS, specs := w.offTimer()
	passes := float64(len(log.ops))
	attributed += passes * simS
	attributed += passes * specs / planProbeRuns * m["core.plan_shards_ms"] / 1e3
	// Store, shard and service: the probe cost of each request times how
	// many were made (none outside service-sharded). A journal batch over
	// HTTP includes its ingest, codec and journal append.
	d := func(k string) float64 { return b.workload[k] - a.workload[k] }
	attributed += d("shard.batches") * m["shard.http_batch_ms"] / 1e3
	attributed += d("service.campaigns") * (m["service.submit_ms"] + m["service.log_fetch_ms"]) / 1e3
	attributed += d("service.polls") * m["service.status_get_us"] / 1e6
	m["core.attributed_share"] = attributed / cpu

	m["core.captures_per_exp"] = perExp(float64(b.eng.SnapshotCaptures - a.eng.SnapshotCaptures))
	m["core.forks_created"] = float64(b.eng.ForksCreated - a.eng.ForksCreated)
	m["core.vessels_discarded"] = float64(b.eng.VesselsDiscarded - a.eng.VesselsDiscarded)
	m["core.quarantined"] = float64(b.panics - a.panics + b.deadlines - a.deadlines)
	m["core.outcome_masked"] = float64(log.res.Exact.Counts.Masked)
	m["core.outcome_sdc"] = float64(log.res.Exact.Counts.SDC)
	m["core.outcome_crash"] = float64(log.res.Exact.Counts.Crash)
	for _, app := range fullSizes().evalApps {
		var e6 float64
		if s, ok := log.res.Exact.WAVF[app]; ok {
			fmt.Sscan(s, &e6)
		}
		m["core.wavf_e6."+app] = e6 * 1e6
	}

	copied := float64(b.eng.COWBytesCopied - a.eng.COWBytesCopied)
	avoided := float64(b.eng.COWBytesAvoided - a.eng.COWBytesAvoided)
	m["sim.cow_bytes_per_exp"] = perExp(copied)
	m["sim.cow_dirty_ratio"] = 0
	if copied+avoided > 0 {
		m["sim.cow_dirty_ratio"] = copied / (copied + avoided)
	}

	m["store.journal_fsyncs_per_kexp"] = perExp(float64(b.fsyncs-a.fsyncs)) * 1e3
	for _, k := range []string{"shard.batches", "shard.records_duped", "shard.reissued", "shard.lease_expiries"} {
		m[k] = d(k)
	}

	m["host.alloc_bytes_per_exp"] = perExp(float64(b.mem.TotalAlloc - a.mem.TotalAlloc))
	m["host.mallocs_per_exp"] = perExp(float64(b.mem.Mallocs - a.mem.Mallocs))
	m["host.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / cpu
}

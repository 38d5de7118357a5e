package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/obs"
	"gpufi/internal/sim"
)

// This file is the gate on running an application's campaign points as one
// engine run: nothing a point's sink receives may depend on which other
// points shared the prefix with it. The reference is the evaluation as a
// loop of one-point campaigns (oracle_test.go).

// streamRecorder keeps one point's journal and trace records as serialized
// bytes in the order the sink received them. The collector serializes a
// point's sink, so it needs no lock of its own.
type streamRecorder struct {
	name            string // the point's, for failure messages
	journal, traces [][]byte
}

func (r *streamRecorder) attach(cfg *CampaignConfig) {
	cfg.Trace = true
	cfg.Sink = func(exp Experiment) error {
		b, err := json.Marshal(exp)
		r.journal = append(r.journal, b)
		if err != nil || exp.Trace == nil {
			return err
		}
		b, err = json.Marshal(exp.Trace)
		r.traces = append(r.traces, b)
		return err
	}
}

// sameRecords compares two record streams: byte for byte in arrival order,
// or as sorted sets when scheduling may reorder arrivals.
func sameRecords(a, b [][]byte, ordered bool) bool {
	if !ordered {
		a, b = append([][]byte(nil), a...), append([][]byte(nil), b...)
		for _, s := range [][][]byte{a, b} {
			sort.Slice(s, func(i, j int) bool { return bytes.Compare(s[i], s[j]) < 0 })
		}
	}
	return len(a) == len(b) && bytes.Equal(bytes.Join(a, []byte{'\n'}), bytes.Join(b, []byte{'\n'}))
}

// TestEvaluateFusedVsPerPointDifferential evaluates every application on
// both presets twice — as one engine run over all its points, and as the
// per-point loop — with a journal and a trace file on every point. With one
// worker the two files must be byte-identical per point, arrival order
// included; with two, identical as sets of records. The assembled AppEval
// (every Counts, AVF, wAVF, FIT) must be equal.
func TestEvaluateFusedVsPerPointDifferential(t *testing.T) {
	presets := []*config.GPU{config.RTX2060(), config.GTXTitan()}
	apps := bench.All()
	if testing.Short() {
		apps, presets = apps[:3], presets[:1]
	}
	for _, gpu := range presets {
		for _, app := range apps {
			prof, err := ProfileApp(nil, app, gpu)
			if err != nil {
				t.Fatalf("%s/%s profile: %v", gpu.Name, app.Name, err)
			}
			var loop *AppEval // the per-point loop's numbers, last worker count
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("%s/%s/workers=%d", gpu.Name, app.Name, workers)
				ecfg := EvalConfig{Runs: 5, Seed: 7, Workers: workers}

				fused, points, err := planEval(app, gpu, prof, ecfg)
				if err != nil {
					t.Fatalf("%s plan: %v", label, err)
				}
				fusedRecs := make([]streamRecorder, len(points))
				for n, pt := range points {
					fusedRecs[n].attach(pt.cfg)
				}
				results, err := runPoints(context.Background(), prof, points)
				if err != nil {
					t.Fatalf("%s fused: %v", label, err)
				}
				fused.assemble(gpu, ecfg.structures(), results)

				soloRecs := make([]streamRecorder, len(points))
				var soloCfgs []*CampaignConfig
				solo, err := evaluatePerPoint(nil, app, gpu, ecfg, prof, func(n int, ccfg *CampaignConfig) {
					soloRecs[n].attach(ccfg)
					soloCfgs = append(soloCfgs, ccfg)
				})
				if err != nil {
					t.Fatalf("%s per-point: %v", label, err)
				}
				if len(soloCfgs) != len(points) {
					t.Fatalf("%s: %d fused points vs %d per-point campaigns", label, len(points), len(soloCfgs))
				}
				for n, pt := range points {
					name := label + "/" + pointName(pt)
					if pt.cfg.Seed != soloCfgs[n].Seed || pt.cfg.Kernel != soloCfgs[n].Kernel || pt.cfg.Structure != soloCfgs[n].Structure {
						t.Fatalf("%s: point %d is %s/%s seed %d, the loop's is %s/%s seed %d", name, n,
							pt.cfg.Kernel, pt.cfg.Structure, pt.cfg.Seed, soloCfgs[n].Kernel, soloCfgs[n].Structure, soloCfgs[n].Seed)
					}
					if got := len(fusedRecs[n].journal); got != ecfg.Runs {
						t.Errorf("%s: %d journal records, want %d", name, got, ecfg.Runs)
					}
					if !sameRecords(fusedRecs[n].journal, soloRecs[n].journal, workers == 1) {
						t.Errorf("%s: journal bytes diverged:\n fused: %s\n alone: %s", name,
							bytes.Join(fusedRecs[n].journal, []byte{' '}), bytes.Join(soloRecs[n].journal, []byte{' '}))
					}
					if !sameRecords(fusedRecs[n].traces, soloRecs[n].traces, workers == 1) {
						t.Errorf("%s: trace bytes diverged", name)
					}
					if len(results[n].Exps) != ecfg.Runs {
						t.Errorf("%s: result holds %d experiments, want %d", name, len(results[n].Exps), ecfg.Runs)
					}
				}
				if !reflect.DeepEqual(fused, solo) {
					t.Errorf("%s: AppEval diverged:\n fused: %+v\n loop:  %+v", label, fused, solo)
				}
				loop = solo
			}
			// The exported entry point, untraced, against the traced loop at
			// the same worker count: tracing is observational, so the numbers
			// must agree as well.
			got, err := EvaluateApp(nil, app, gpu, EvalConfig{Runs: 5, Seed: 7, Workers: 2})
			if err != nil {
				t.Fatalf("%s/%s EvaluateApp: %v", gpu.Name, app.Name, err)
			}
			if !reflect.DeepEqual(got, loop) {
				t.Errorf("%s/%s: EvaluateApp diverged from the per-point loop:\n got:  %+v\n want: %+v", gpu.Name, app.Name, got, loop)
			}
		}
	}
}

// latePoint is the benchmark's campaign-late point at service-sharded's
// size: BP's last bp_adjust invocation, 5,000 register-file injections.
func latePoint(t *testing.T) (*CampaignConfig, *Profile) {
	t.Helper()
	app, err := bench.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	gpu := config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	return &CampaignConfig{
		App: app, GPU: gpu, Kernel: "bp_adjust", Structure: sim.StructRegFile,
		Runs: 5000, Bits: 1, Seed: 7, Invocation: len(prof.Kernels["bp_adjust"].Windows),
	}, prof
}

// TestOnePointPlanUnchanged pins what a coordinator and its workers rely
// on: for one point the cluster plan is the plan of that campaign alone
// (the per-point planner, and a digest recorded before runs carried several
// points), and so is the PlanShards partition built from it.
func TestOnePointPlanUnchanged(t *testing.T) {
	cfg, prof := latePoint(t)
	cp, err := planCampaign(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	clusters := planClusters([]*point{{cfg: cfg, plan: cp, pending: cp.pending}})
	snaps, idxs := planClustersPerPoint(cp.pending, cp.specs, cp.windows)
	if len(clusters) != len(snaps) {
		t.Fatalf("%d clusters, the per-point planner makes %d", len(clusters), len(snaps))
	}
	h := sha256.New()
	for c, cl := range clusters {
		got := make([]int, len(cl.jobs))
		for k, j := range cl.jobs {
			if j.p != 0 {
				t.Fatalf("cluster %d names point %d in a one-point run", c, j.p)
			}
			got[k] = j.i
		}
		if cl.snapCycle != snaps[c] || !reflect.DeepEqual(got, idxs[c]) {
			t.Fatalf("cluster %d: snapshot %d %v, the per-point planner has %d %v", c, cl.snapCycle, got, snaps[c], idxs[c])
		}
		fmt.Fprintln(h, cl.snapCycle, got)
	}
	const wantClusters = "6a4b13ee71019ab56edcf9543ce1008237b7691b8d69bab520c92fc9b3efcf06"
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(clusters) != 63 || got != wantClusters {
		t.Errorf("cluster plan moved: %d clusters, digest %s", len(clusters), got)
	}

	shards, err := PlanShards(cfg, prof, 8)
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	for _, s := range shards {
		fmt.Fprintln(h, s)
	}
	const wantShards = "8e2c57b8012299ae17236e7f1400de9c9da014ef08b38c18412a6365fea98281"
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(shards) != 8 || got != wantShards {
		t.Errorf("shard partition moved: %d shards, digest %s", len(shards), got)
	}
}

// TestWindowCursorMatchesScan holds the monotone window walk to the
// every-window scan it replaced, on hand-picked boundaries and on random
// sorted, disjoint window lists.
func TestWindowCursorMatchesScan(t *testing.T) {
	check := func(name string, windows []sim.CycleWindow, cycles []uint64) {
		t.Helper()
		cur := windowCursor{windows: windows}
		for _, c := range cycles {
			if got, want := cur.start(c), windowStartScan(windows, c); got != want {
				t.Fatalf("%s: cycle %d in window starting %d, the scan says %d (windows %v)", name, c, got, want, windows)
			}
		}
	}
	table := []sim.CycleWindow{{Start: 10, End: 20}, {Start: 20, End: 25}, {Start: 40, End: 41}, {Start: 100, End: 500}}
	check("table", table, []uint64{0, 1, 10, 11, 20, 20, 21, 25, 26, 40, 41, 42, 99, 100, 101, 500, 501, 9000})
	check("no windows", nil, []uint64{0, 5, 6})
	check("one window", table[:1], []uint64{10, 11, 20, 21})

	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 200; round++ {
		var windows []sim.CycleWindow
		var at uint64
		for n := rng.Intn(40); n > 0; n-- {
			at += uint64(rng.Intn(4)) // gaps of 0: back-to-back launches
			w := sim.CycleWindow{Start: at, End: at + 1 + uint64(rng.Intn(30))}
			windows = append(windows, w)
			at = w.End
		}
		cycles := make([]uint64, rng.Intn(200))
		for i := range cycles {
			cycles[i] = uint64(rng.Intn(int(at) + 10))
		}
		sort.Slice(cycles, func(a, b int) bool { return cycles[a] < cycles[b] })
		check(fmt.Sprintf("round %d", round), windows, cycles)
	}
}

// vaPoints plans VA's evaluation: one kernel, five points, of which shared
// memory is absent (va_add uses none) and answered without simulating.
func vaPoints(t *testing.T, runs int) (*Profile, []*point) {
	t.Helper()
	app, gpu := bench.VA(), config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	_, points, err := planEval(app, gpu, prof, EvalConfig{Runs: runs, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return prof, points
}

// TestFusedCancellationKeepsEveryPoint cancels a five-point run from one
// point's sink: the run must come back promptly with a result
// for every point, each holding exactly the experiments its own sink saw.
func TestFusedCancellationKeepsEveryPoint(t *testing.T) {
	const runs = 80
	prof, points := vaPoints(t, runs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := make([]int, len(points))
	var simulated atomic.Int64
	for n, pt := range points {
		pt.cfg.Sink = func(exp Experiment) error {
			seen[n]++
			if !pt.plan.absent && simulated.Add(1) == 12 {
				cancel()
			}
			return nil
		}
	}
	results, err := runPoints(ctx, prof, points)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(results) != len(points) {
		t.Fatalf("%d results for %d points", len(results), len(points))
	}
	total := 0
	for n, r := range results {
		if r == nil {
			t.Fatalf("point %d has no partial result", n)
		}
		if r.Counts.Total() != seen[n] || len(r.Exps) != seen[n] {
			t.Errorf("point %s: result holds %d experiments (%d listed), its sink saw %d",
				pointName(points[n]), r.Counts.Total(), len(r.Exps), seen[n])
		}
		if points[n].plan.absent {
			if r.Counts.Masked != runs {
				t.Errorf("absent point %s finished %d of %d", pointName(points[n]), r.Counts.Masked, runs)
			}
			continue
		}
		total += r.Counts.Total()
	}
	if total < 12 || total > 12+2 {
		t.Errorf("%d experiments finished around a cancel at the 12th with 2 workers", total)
	}
}

// TestFusedPrefixEndingEarlyCountsEveryPoint: a prefix that returns without
// reaching the snapshot plan must report the experiments that never ran
// over all points of the run, not the first one's.
func TestFusedPrefixEndingEarlyCountsEveryPoint(t *testing.T) {
	const runs = 10
	prof, points := vaPoints(t, runs)
	stunted := *points[0].cfg.App
	stunted.Run = func(g *sim.GPU) ([]byte, error) { return append([]byte(nil), prof.Golden...), nil }
	for _, pt := range points {
		pt.cfg.App = &stunted
	}
	results, err := runPoints(context.Background(), prof, points)
	if err == nil || !strings.Contains(err.Error(), "snapshot cluster") {
		t.Fatalf("want the partial-run error, got %v", err)
	}
	if want := fmt.Sprintf("%d experiment(s) never ran", 4*runs); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
	if len(results) != len(points) {
		t.Fatalf("%d results for %d points", len(results), len(points))
	}
}

// pointName names a campaign point in failure messages.
func pointName(pt *point) string { return pt.cfg.Kernel + "/" + pt.cfg.Structure.String() }

// tracedRun runs fn under a trace and returns the span records it emitted.
func tracedRun(t *testing.T, fn func(ctx context.Context) error) []obs.SpanRecord {
	t.Helper()
	var mu sync.Mutex
	var recs []obs.SpanRecord
	ctx := obs.ContextWithSink(
		obs.ContextWithNode(obs.ContextWithTrace(context.Background(), obs.NewTraceID()), "test"),
		func(r obs.SpanRecord) { mu.Lock(); recs = append(recs, r); mu.Unlock() })
	if err := fn(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return recs
}

// phaseSums is what the three engine phase histograms hold, in ns.
func phaseSums() [3]int64 {
	st := EngineStats()
	return [3]int64{st.ForkNanos, st.ExecuteNanos, st.ClassifyNanos}
}

// checkClusterSpans holds a traced run's engine.cluster spans to the run:
// their experiments sum to want, the experiments it simulated, and their
// fork_ns, execute_ns and classify_ns to what the phase histograms gained
// since before, within 1 µs in all: both sum the same durations, and only
// round differently.
func checkClusterSpans(t *testing.T, recs []obs.SpanRecord, before [3]int64, want int) {
	t.Helper()
	exps, got := 0, [3]int64{}
	for _, r := range recs {
		if r.Name != "engine.cluster" {
			continue
		}
		n, err := strconv.Atoi(r.Attrs["experiments"])
		if err != nil {
			t.Fatalf("engine.cluster span with attributes %v", r.Attrs)
		}
		exps += n
		for i, k := range []string{"fork_ns", "execute_ns", "classify_ns"} {
			ns, err := strconv.ParseInt(r.Attrs[k], 10, 64)
			if err != nil {
				t.Fatalf("engine.cluster span %s: %s %q", r.Attrs["cluster"], k, r.Attrs[k])
			}
			got[i] += ns
		}
	}
	if exps != want {
		t.Errorf("engine.cluster spans count %d experiments, the run simulated %d", exps, want)
	}
	after := phaseSums()
	for i, k := range []string{"fork_ns", "execute_ns", "classify_ns"} {
		if d := got[i] - (after[i] - before[i]); d < -1000 || d > 1000 {
			t.Errorf("%s sums to %d over the clusters, the histogram gained %d", k, got[i], after[i]-before[i])
		}
	}
}

// TestFusedSpansNameTheirPoint: a traced run emits no span per experiment;
// its engine.cluster spans carry the phase times, and a fused cluster's sums
// cover every point in it, as a one-point campaign's cover its one.
func TestFusedSpansNameTheirPoint(t *testing.T) {
	perExp := map[string]bool{"engine.fork": true, "engine.execute": true, "engine.classify": true}
	check := func(recs []obs.SpanRecord, before [3]int64, want int) {
		t.Helper()
		for _, r := range recs {
			if perExp[r.Name] {
				t.Fatalf("per-experiment %s span with attributes %v", r.Name, r.Attrs)
			}
		}
		checkClusterSpans(t, recs, before, want)
	}

	const runs = 6
	prof, points := vaPoints(t, runs)
	simulated := 0
	for _, pt := range points {
		if !pt.plan.absent {
			simulated += runs
		}
	}
	before := phaseSums()
	check(tracedRun(t, func(ctx context.Context) error { _, err := runPoints(ctx, prof, points); return err }),
		before, simulated)

	before = phaseSums()
	check(tracedRun(t, func(ctx context.Context) error {
		_, err := RunCampaign(ctx, &CampaignConfig{
			App: bench.VA(), GPU: config.RTX2060(), Kernel: "va_add", Structure: sim.StructRegFile,
			Runs: runs, Bits: 1, Seed: 3, Workers: 2,
		}, prof)
		return err
	}), before, runs)
}

// TestEvaluateAppCancellation cancels an evaluation in the middle of its
// matrix: it must return promptly with an error that still is
// context.Canceled, and every device it borrowed must be back in the pool —
// as many parked as a completed evaluation leaves, and none built by the
// evaluation that follows.
func TestEvaluateAppCancellation(t *testing.T) {
	app, err := bench.ByName("BP")
	if err != nil {
		t.Fatal(err)
	}
	gpu := config.RTX2060()
	ecfg := EvalConfig{Runs: 30, Seed: 9, Workers: 2}
	if _, err := EvaluateApp(nil, app, gpu, ecfg); err != nil {
		t.Fatal(err)
	}
	settled := sim.PoolStats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	prev := SetExperimentHook(func(int, *sim.FaultSpec) {
		if started.Add(1) == 40 {
			cancel()
		}
	})
	eval, err := EvaluateApp(ctx, app, gpu, ecfg)
	SetExperimentHook(prev)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want an error that is context.Canceled, got %v", err)
	}
	if eval != nil {
		t.Errorf("cancelled evaluation returned numbers: %+v", eval)
	}
	if n := started.Load(); n > 40+int64(ecfg.Workers) {
		t.Errorf("%d experiments started after a cancel at the 40th", n)
	}
	if got := sim.PoolStats(); got.DevicesParked != settled.DevicesParked {
		t.Errorf("%d devices parked after the cancel, a completed evaluation leaves %d", got.DevicesParked, settled.DevicesParked)
	}
	if _, err := EvaluateApp(nil, app, gpu, ecfg); err != nil {
		t.Fatal(err)
	}
	if got := sim.PoolStats(); got.DevicesBuilt != settled.DevicesBuilt {
		t.Errorf("the evaluation after the cancel built %d devices", got.DevicesBuilt-settled.DevicesBuilt)
	}
}

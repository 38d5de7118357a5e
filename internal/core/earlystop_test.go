package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// This file is the gate on ending an experiment when its fault does. The
// reference is the engine with CampaignConfig.runToEnd set: every experiment
// simulates to the application's last cycle and byte-compares its output, as
// every experiment did before. Whatever the engine writes for an experiment
// it stopped early must be what that run writes.

// stopVariant is one way of arming the faults of a campaign point.
type stopVariant struct {
	name         string
	bits         int
	warpWide     bool
	blocks       int
	simultaneous []sim.Structure
	ecc          bool
	only         []sim.Structure // nil: every structure
}

var stopVariants = []stopVariant{
	{name: "1bit", bits: 1},
	{name: "3bit", bits: 3},
	{name: "warpwide", bits: 1, warpWide: true, only: []sim.Structure{sim.StructRegFile, sim.StructLocal}},
	{name: "blocks2", bits: 1, blocks: 2, only: []sim.Structure{sim.StructShared}},
	{name: "regfile+shared", bits: 1, simultaneous: []sim.Structure{sim.StructShared}, only: []sim.Structure{sim.StructRegFile}},
	{name: "l2+regfile", bits: 1, simultaneous: []sim.Structure{sim.StructRegFile}, only: []sim.Structure{sim.StructL2}},
	{name: "ecc-1bit", bits: 1, ecc: true},
	{name: "ecc-3bit", bits: 3, ecc: true},
}

// stopPoints plans every (kernel, structure, variant) point of app on gpu
// for one ECC setting, each with a journal and a trace recorder attached.
func stopPoints(t *testing.T, app *bench.App, gpu *config.GPU, prof *Profile, ecc, runToEnd bool, runs, workers int) ([]*point, []*streamRecorder) {
	t.Helper()
	var points []*point
	var recs []*streamRecorder
	for ki, kname := range prof.KernelOrder {
		for si, st := range sim.Structures() {
			for vi, v := range stopVariants {
				if v.ecc != ecc || (v.only != nil && !slices.Contains(v.only, st)) {
					continue
				}
				cfg := &CampaignConfig{
					App: app, GPU: gpu, Kernel: kname, Structure: st,
					Runs: runs, Bits: v.bits, WarpWide: v.warpWide, Blocks: v.blocks,
					Simultaneous: v.simultaneous, Workers: workers,
					Seed:      22 ^ int64(ki*131+si*17+vi*7+1)*0x5DEECE66D,
					runToEnd:  runToEnd,
					spanPoint: kname + "/" + st.String() + "/" + v.name,
				}
				if cfg.Validate() != nil {
					continue // the model lacks the structure (GTX Titan has no L1D)
				}
				cp, err := planCampaign(cfg, prof)
				if err != nil {
					t.Fatalf("%s/%s plan: %v", app.Name, cfg.spanPoint, err)
				}
				rec := &streamRecorder{}
				rec.attach(cfg)
				points = append(points, &point{cfg: cfg, plan: cp, pending: cp.pending})
				recs = append(recs, rec)
			}
		}
	}
	return points, recs
}

// stopCounts reads the engine's early-stop counters as (inert, overwritten,
// retired, dead on arrival).
func stopCounts() [4]int64 {
	es := EngineStats()
	return [4]int64{es.EarlyStopsInert, es.EarlyStopsOverwritten, es.EarlyStopsRetired, es.EarlyStopsDead}
}

// withoutWhy returns the journal a traced campaign's untraced twin writes:
// Why is the one field of a record only a tracer fills in.
func withoutWhy(t *testing.T, journal [][]byte) [][]byte {
	t.Helper()
	out := make([][]byte, len(journal))
	for i, rec := range journal {
		var exp Experiment
		if err := json.Unmarshal(rec, &exp); err != nil {
			t.Fatal(err)
		}
		exp.Why = ""
		b, err := json.Marshal(exp)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestEarlyStopVsRunToEndDifferential runs every application on both presets
// over all eight structures, single- and triple-bit, warp-wide, two-block
// shared, two simultaneous pairs and ECC on, each point traced: on the engine
// and on the run-to-the-end oracle, one worker each, so the journal and the
// trace file of every point must be byte-identical, arrival order included;
// and on the engine with two workers, identical as sets. Then the engine
// again without a tracer, where it also stops faults dead on arrival and a
// vessel that stopped carries on into its next experiment unrestored: the
// same journals but for the tracer's Why, in arrival order with one worker
// and as sets with two. The oracle must never stop or chain, and the engine
// must have stopped by every rule and chained.
func TestEarlyStopVsRunToEndDifferential(t *testing.T) {
	presets := []*config.GPU{config.RTX2060(), config.GTXTitan()}
	apps := bench.All()
	runs := 3
	if testing.Short() {
		apps, presets = apps[:4], presets[:1]
	}
	var engineStops [4]int64
	experiments := 0
	chainedStart := EngineStats().RestoresChained
	for _, preset := range presets {
		for _, app := range apps {
			for _, ecc := range []bool{false, true} {
				gpu := *preset
				gpu.ECC = ecc
				label := fmt.Sprintf("%s/%s/ecc=%v", gpu.Name, app.Name, ecc)
				prof, err := ProfileApp(nil, app, &gpu)
				if err != nil {
					t.Fatalf("%s profile: %v", label, err)
				}
				run := func(runToEnd, traced bool, workers int) ([]*point, []*streamRecorder, [4]int64) {
					points, recs := stopPoints(t, app, &gpu, prof, ecc, runToEnd, runs, workers)
					for _, pt := range points {
						pt.cfg.Trace = traced
					}
					before := stopCounts()
					if _, err := runPoints(context.Background(), prof, points); err != nil {
						t.Fatalf("%s runToEnd=%v workers=%d: %v", label, runToEnd, workers, err)
					}
					after := stopCounts()
					for k := range after {
						after[k] -= before[k]
					}
					return points, recs, after
				}
				chainedBefore := EngineStats().RestoresChained
				points, oracle, oracleStops := run(true, true, 1)
				if oracleStops != [4]int64{} || EngineStats().RestoresChained != chainedBefore {
					t.Fatalf("%s: the run-to-the-end oracle stopped early or chained: %v", label, oracleStops)
				}
				_, engine, stops := run(false, true, 1)
				_, engine2, _ := run(false, true, 2)
				_, bare, bareStops := run(false, false, 1)
				_, bare2, _ := run(false, false, 2)
				for k := range stops {
					engineStops[k] += stops[k] + bareStops[k]
				}
				for n, pt := range points {
					name := label + "/" + pt.cfg.spanPoint
					experiments += runs
					if got := len(engine[n].journal); got != runs {
						t.Errorf("%s: %d journal records, want %d", name, got, runs)
					}
					if !sameRecords(engine[n].journal, oracle[n].journal, true) {
						t.Errorf("%s: journal bytes diverged:\n engine: %s\n to end: %s", name,
							bytes.Join(engine[n].journal, []byte{' '}), bytes.Join(oracle[n].journal, []byte{' '}))
					}
					if !sameRecords(engine[n].traces, oracle[n].traces, true) {
						t.Errorf("%s: trace bytes diverged:\n engine: %s\n to end: %s", name,
							bytes.Join(engine[n].traces, []byte{' '}), bytes.Join(oracle[n].traces, []byte{' '}))
					}
					if !sameRecords(engine2[n].journal, oracle[n].journal, false) || !sameRecords(engine2[n].traces, oracle[n].traces, false) {
						t.Errorf("%s: two workers diverged from the oracle", name)
					}
					want := withoutWhy(t, oracle[n].journal)
					if !sameRecords(bare[n].journal, want, true) {
						t.Errorf("%s: untraced journal bytes diverged:\n engine: %s\n to end: %s", name,
							bytes.Join(bare[n].journal, []byte{' '}), bytes.Join(want, []byte{' '}))
					}
					if !sameRecords(bare2[n].journal, want, false) {
						t.Errorf("%s: untraced, two workers diverged from the oracle", name)
					}
				}
			}
		}
	}
	chained := EngineStats().RestoresChained - chainedStart
	t.Logf("%d restores chained", chained)
	if chained == 0 {
		t.Error("no vessel ever carried on from a stop without a restore")
	}
	t.Logf("%d experiments: %d stopped inert, %d overwritten, %d retired, %d dead on arrival",
		experiments, engineStops[0], engineStops[1], engineStops[2], engineStops[3])
	for k, n := range engineStops {
		if n == 0 {
			t.Errorf("the engine never stopped by rule %d (inert, overwritten, retired, dead on arrival): %v", k, engineStops)
		}
	}
}

// TestEarlyStopUntracedMatchesRunToEnd is the differential without a tracer,
// where the engine stops most (a traced run goes on while the tracer could
// still speak): journal bytes per point over the evaluation matrix of four
// applications.
func TestEarlyStopUntracedMatchesRunToEnd(t *testing.T) {
	gpu := config.RTX2060()
	names := []string{"SRAD2", "HS", "BP", "KM", "PATHF", "LUD"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		app, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := ProfileApp(nil, app, gpu)
		if err != nil {
			t.Fatal(err)
		}
		run := func(runToEnd bool) [][]byte {
			_, points, err := planEval(app, gpu, prof, EvalConfig{Runs: 12, Seed: 7, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var journal [][]byte
			for _, pt := range points {
				pt.cfg.runToEnd = runToEnd
				pt.cfg.Journal = func(exp Experiment) error {
					b, err := json.Marshal(exp)
					journal = append(journal, b)
					return err
				}
			}
			if _, err := runPoints(context.Background(), prof, points); err != nil {
				t.Fatal(err)
			}
			return journal
		}
		before := stopCounts()
		engine := run(false)
		after := stopCounts()
		if oracle := run(true); !sameRecords(engine, oracle, true) {
			t.Errorf("%s: untraced journals diverged:\n engine: %s\n to end: %s", name,
				bytes.Join(engine, []byte{' '}), bytes.Join(oracle, []byte{' '}))
		}
		if after == before {
			t.Errorf("%s: the engine stopped nothing", name)
		}
	}
}

// TestSwallowedStopIsNotACrash: an application wrapper that ignores a launch
// error and carries on to a wrong output must not turn an experiment the
// device stopped into an SDC, nor one that reports an error of its own into a
// Crash. The verdict is read from the device, not from what the application
// returned.
func TestSwallowedStopIsNotACrash(t *testing.T) {
	gpu := config.RTX2060()
	va, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, va, gpu)
	if err != nil {
		t.Fatal(err)
	}
	swallowing := *va
	swallowing.Run = func(g *sim.GPU) ([]byte, error) {
		out, err := va.Run(g)
		if err != nil && !errors.Is(err, sim.ErrReplayStop) {
			return make([]byte, len(prof.Golden)), nil // carries on, to a wrong output
		}
		return out, err
	}
	mk := func(app *bench.App, runToEnd bool) *CampaignResult {
		cfg := &CampaignConfig{App: app, GPU: gpu, Kernel: "va_add", Structure: sim.StructL1T,
			Runs: 30, Bits: 1, Seed: 3, Workers: 2, runToEnd: runToEnd}
		res, err := RunCampaign(nil, cfg, prof)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before := stopCounts()
	got := mk(&swallowing, false)
	if stops := stopCounts(); stops == before {
		t.Fatal("no experiment stopped early: the test shows nothing")
	}
	want := mk(va, true)
	if got.Counts != want.Counts {
		t.Fatalf("counts through a wrapper that swallows the stop: %+v, run to the end: %+v", got.Counts, want.Counts)
	}
	for i := range got.Exps {
		if g, w := got.Exps[i], want.Exps[i]; g.Effect != w.Effect || g.Cycles != w.Cycles || g.Detail != w.Detail {
			t.Errorf("experiment %d: %s %d %q, run to the end %s %d %q", i, g.Effect, g.Cycles, g.Detail, w.Effect, w.Cycles, w.Detail)
		}
	}
}

// TestL1IJournalsUnchanged holds the L1I campaigns of three applications on
// the three presets to journal digests recorded before injectL1I learned to
// leave a core alone when no flip landed on a valid line. Never refresh the
// file to make a change pass: a mismatch means an L1I fault is classified
// differently than it was.
func TestL1IJournalsUnchanged(t *testing.T) {
	raw, err := os.ReadFile("testdata/l1i_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			want[f[0]] = f[1]
		}
	}
	inert := int64(0)
	for _, gpu := range []*config.GPU{config.RTX2060(), config.QuadroGV100(), config.GTXTitan()} {
		if gpu.L1I == nil {
			continue
		}
		for _, name := range []string{"VA", "HS", "BP"} {
			app, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := ProfileApp(nil, app, gpu)
			if err != nil {
				t.Fatal(err)
			}
			for _, kernel := range prof.KernelOrder {
				h := sha256.New()
				cfg := &CampaignConfig{App: app, GPU: gpu, Kernel: kernel, Structure: sim.StructL1I,
					Runs: 100, Bits: 1, Seed: 7, Workers: 1, Trace: true,
					Journal: func(exp Experiment) error {
						b, err := json.Marshal(exp)
						h.Write(append(b, '\n'))
						return err
					},
					TraceSink: func(tr ExperimentTrace) error {
						b, err := json.Marshal(tr)
						h.Write(append(b, '\n'))
						return err
					},
				}
				before := EngineStats().EarlyStopsInert
				if _, err := RunCampaign(nil, cfg, prof); err != nil {
					t.Fatal(err)
				}
				inert += EngineStats().EarlyStopsInert - before
				key := fmt.Sprintf("%s/%s/%s", gpu.Name, name, kernel)
				if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[key] {
					t.Errorf("%s: journal+trace digest %s, recorded %q", key, got, want[key])
				}
			}
		}
	}
	if inert == 0 {
		t.Error("no L1I injection was inert: invalid-line flips should leave the core alone and stop at once")
	}
}

// TestAnalyticMaskedSitesAllStopEarly crosses the two proofs of "never read":
// every site the adaptive planner's pre-pass (AccessPrepass: last read of a
// register index or shared word over all threads, one extra fault-free run)
// calls analytically masked must be a run the engine stops early, since the
// watch follows the very cells and reads. The engine proves more — it knows
// the thread that was hit — and the log line says by how much: the number
// ROADMAP item 10(b) asks for.
func TestAnalyticMaskedSitesAllStopEarly(t *testing.T) {
	gpu := config.RTX2060()
	names := []string{"VA", "BP", "HS", "SRAD2", "KM"}
	if testing.Short() {
		names = names[:2]
	}
	var sites, analytic, analyticStopped, otherStopped int64
	for _, name := range names {
		app, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := ProfileApp(nil, app, gpu)
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range prof.KernelOrder {
			for _, st := range []sim.Structure{sim.StructRegFile, sim.StructShared} {
				cfg := &CampaignConfig{App: app, GPU: gpu, Kernel: kernel, Structure: st,
					Runs: 120, Bits: 1, Seed: 7, Workers: 2}
				recs, err := PlanAnalytic(nil, cfg, prof)
				if err != nil {
					t.Fatal(err)
				}
				masked := map[int]bool{}
				for _, r := range recs {
					masked[r.ID] = true
				}
				// Run the analytic sites alone, then the others alone.
				for _, analyticHalf := range []bool{true, false} {
					half := *cfg
					for i := 0; i < cfg.Runs; i++ {
						if masked[i] != analyticHalf {
							half.Completed = append(half.Completed, i)
						}
					}
					before := stopCounts()
					res, err := RunCampaign(nil, &half, prof)
					if err != nil {
						t.Fatal(err)
					}
					after := stopCounts()
					stopped := after[0] + after[1] + after[2] + after[3] - before[0] - before[1] - before[2] - before[3]
					if !analyticHalf {
						otherStopped += stopped
						continue
					}
					if res.Counts.Masked != len(recs) {
						t.Errorf("%s/%s/%s: %d analytically masked sites, %d simulate as Masked", name, kernel, st, len(recs), res.Counts.Masked)
					}
					if stopped != int64(len(recs)) {
						t.Errorf("%s/%s/%s: %d analytically masked sites, the engine stopped %d of them early", name, kernel, st, len(recs), stopped)
					}
					analyticStopped += stopped
				}
				sites += int64(cfg.Runs)
				analytic += int64(len(recs))
			}
		}
	}
	t.Logf("%d register-file and shared-memory sites: %d analytically masked, all %d stopped early by the engine, which also stopped %d the pre-pass could not call",
		sites, analytic, analyticStopped, otherStopped)
}

// TestSkippedCyclesAddUp: a campaign in which every run stops on arrival —
// VA never touches its texture cache, so every flip there lands on an invalid
// line — executed, of each experiment, the cycles before its injection cycle
// and skipped the rest. A stop on arrival happens entering the injection
// cycle, before any warp issues in it, so that cycle is skipped too: the two
// must add up to the golden run's length for every run.
func TestSkippedCyclesAddUp(t *testing.T) {
	gpu := config.RTX2060()
	va, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, va, gpu)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &CampaignConfig{App: va, GPU: gpu, Kernel: "va_add", Structure: sim.StructL1T,
		Runs: 60, Bits: 1, Seed: 9, Workers: 2}
	before := EngineStats()
	res, err := RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	after := EngineStats()
	if stopped := after.EarlyStopsInert - before.EarlyStopsInert; stopped != int64(cfg.Runs) {
		t.Fatalf("%d of %d runs stopped as inert: the campaign is not the one the test is built on", stopped, cfg.Runs)
	}
	var executed uint64
	for _, exp := range res.Exps {
		executed += exp.Cycle - 1
	}
	skipped := uint64(after.SuffixCyclesSkipped - before.SuffixCyclesSkipped)
	if want := uint64(cfg.Runs) * prof.TotalCycles; executed+skipped != want {
		t.Errorf("%d cycles executed before the injections + %d skipped = %d, want %d runs x %d cycles = %d",
			executed, skipped, executed+skipped, cfg.Runs, prof.TotalCycles, want)
	}
}

package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// TestPoisonedCampaignIsolation is the sandbox's core contract: one fault
// specification that drives the simulator into a panic must cost exactly
// that one experiment. Every other outcome of the batch stays
// bit-identical to a clean run of the same seed, the poison run is
// classified as a quarantined Crash carrying a diagnosable detail string,
// and the Quarantine hook sees it. The vessel it ran on leaves the system
// with it: it is not among the devices the campaign returns to the pool, and
// the next campaign, on what was returned, matches the clean run.
func TestPoisonedCampaignIsolation(t *testing.T) {
	gpu := config.RTX2060()
	app, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	const poisonID = 17
	mk := func() *CampaignConfig {
		return &CampaignConfig{App: app, GPU: gpu, Kernel: "va_add", Structure: sim.StructRegFile,
			Runs: 50, Bits: 1, Seed: 11, Workers: 4}
	}
	clean, err := RunCampaign(nil, mk(), prof)
	if err != nil {
		t.Fatalf("clean: %v", err)
	}

	var quarantined []Experiment
	cfg := mk()
	cfg.ExperimentHook = func(id int, spec *sim.FaultSpec) {
		if id == poisonID {
			panic("injected simulator bug")
		}
	}
	cfg.Quarantine = func(exp Experiment) error {
		quarantined = append(quarantined, exp) // serialized under the collector lock
		return nil
	}
	poisoned, err := RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatalf("poisoned: %v", err)
	}

	if len(poisoned.Exps) != len(clean.Exps) {
		t.Fatalf("%d experiments with poison vs %d clean", len(poisoned.Exps), len(clean.Exps))
	}
	for i := range clean.Exps {
		c, p := clean.Exps[i], poisoned.Exps[i]
		if i == poisonID {
			if p.Outcome != avf.Crash || !p.Quarantined {
				t.Errorf("poison exp = {%s quarantined=%v}, want quarantined Crash", p.Effect, p.Quarantined)
			}
			if !strings.Contains(p.Detail, "quarantined: simulator panic: injected simulator bug") ||
				!strings.Contains(p.Detail, "stack ") {
				t.Errorf("poison detail %q lacks panic diagnosis", p.Detail)
			}
			continue
		}
		if c.Effect != p.Effect || c.Cycles != p.Cycles || c.Detail != p.Detail || c.Injected != p.Injected {
			t.Errorf("exp %d: clean {%s %d %q %v} vs poisoned {%s %d %q %v}",
				i, c.Effect, c.Cycles, c.Detail, c.Injected, p.Effect, p.Cycles, p.Detail, p.Injected)
		}
	}
	if len(quarantined) != 1 || quarantined[0].ID != poisonID {
		t.Errorf("Quarantine hook saw %v, want exactly experiment %d", quarantined, poisonID)
	}
	wantCrash := clean.Counts.Crash + 1
	if clean.Exps[poisonID].Outcome == avf.Crash {
		wantCrash = clean.Counts.Crash
	}
	if poisoned.Counts.Crash != wantCrash {
		t.Errorf("poisoned Crash count %d, want %d", poisoned.Counts.Crash, wantCrash)
	}

	// With one worker every experiment runs on the same vessel, so the books
	// balance exactly: every device the campaign took from the pool or built
	// comes back parked, except the vessel the poisoned experiment held and
	// the snapshot template of its cluster, which is not recycled either.
	single := func(hook func(int, *sim.FaultSpec)) *CampaignResult {
		cfg := mk()
		cfg.Workers, cfg.ExperimentHook = 1, hook
		res, err := RunCampaign(nil, cfg, prof)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sim.DrainPool()
	single(nil)
	before, started := EngineStats(), 0
	single(func(id int, spec *sim.FaultSpec) {
		if id == poisonID {
			if started == 0 {
				t.Fatalf("experiment %d runs first, on a vessel that holds nothing yet: poison another", poisonID)
			}
			panic("injected simulator bug")
		}
		started++
	})
	after := EngineStats()
	if got, want := after.DevicesParked-before.DevicesParked, after.DevicesBuilt-before.DevicesBuilt-2; got != want {
		t.Errorf("parked devices changed by %d over the poisoned campaign, want %d: %d built, the poisoned vessel and its cluster's template dropped",
			got, want, after.DevicesBuilt-before.DevicesBuilt)
	}
	next := single(nil)
	for i := range clean.Exps {
		if c, n := clean.Exps[i], next.Exps[i]; c.Effect != n.Effect || c.Cycles != n.Cycles || c.Detail != n.Detail {
			t.Errorf("exp %d of the campaign after the poisoned one: {%s %d %q}, clean {%s %d %q}",
				i, n.Effect, n.Cycles, n.Detail, c.Effect, c.Cycles, c.Detail)
		}
	}
}

// TestWallClockDeadline pins the per-experiment watchdog on the fork
// engine: a simulator-side hang (modelled by a hook that sleeps past
// cfg.ExpTimeout) is classified as a quarantined Timeout for that one
// experiment, its vessel is discarded, and every other experiment matches
// a run without the hook. A fork only polls its context once its faulty
// suffix has ticked ctxPollInterval (1024) simulated cycles, so the point
// injects into BFS's first launch: the remaining launches of the
// application put far more than that behind every injection cycle.
func TestWallClockDeadline(t *testing.T) {
	gpu := config.RTX2060()
	app, err := bench.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	if w := prof.Kernels["bfs_k1"].Windows[0]; prof.TotalCycles-w.End < 4*1024 {
		t.Fatalf("campaign point no longer leaves a long suffix: window ends at %d of %d", w.End, prof.TotalCycles)
	}
	// The deadline is generous (a healthy BFS experiment takes milliseconds,
	// even under -race) so only the deliberately hung one can expire.
	const hungID = 3
	mk := func() *CampaignConfig {
		return &CampaignConfig{App: app, GPU: gpu, Kernel: "bfs_k1", Structure: sim.StructRegFile,
			Invocation: 1, Runs: 6, Bits: 1, Seed: 5, Workers: 2, ExpTimeout: time.Second}
	}
	clean, err := RunCampaign(nil, mk(), prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mk()
	cfg.ExperimentHook = func(id int, spec *sim.FaultSpec) {
		if id == hungID {
			time.Sleep(1500 * time.Millisecond)
		}
	}
	_, _, discardedBefore := SandboxStats()
	res, err := RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exps) != 6 {
		t.Fatalf("campaign with one hung experiment finished %d of 6", len(res.Exps))
	}
	hung := res.Exps[hungID]
	if hung.Outcome != avf.Timeout || !hung.Quarantined {
		t.Fatalf("hung exp = {%s quarantined=%v}, want quarantined Timeout", hung.Effect, hung.Quarantined)
	}
	if !strings.Contains(hung.Detail, "wall-clock deadline 1s exceeded") {
		t.Errorf("hung detail %q lacks deadline diagnosis", hung.Detail)
	}
	if _, _, after := SandboxStats(); after-discardedBefore != 1 {
		t.Errorf("vessels discarded rose by %d, want 1 (the hung experiment's)", after-discardedBefore)
	}
	for i, exp := range res.Exps {
		if i == hungID {
			continue
		}
		c := clean.Exps[i]
		if exp.Quarantined || exp.Effect != c.Effect || exp.Cycles != c.Cycles || exp.Detail != c.Detail {
			t.Errorf("exp %d: {%s %d %q quarantined=%v}, un-hooked run {%s %d %q}",
				i, exp.Effect, exp.Cycles, exp.Detail, exp.Quarantined, c.Effect, c.Cycles, c.Detail)
		}
	}
}

// TestPoisonStress hammers the fork engine with several poison specs at a
// high worker count, each panicking only once the prefix has captured the
// cluster after its own (the last cluster's has nowhere to get ahead to):
// every poisoned vessel must be discarded (never Refork-reused), the template
// of every poisoned cluster dropped (never recycled into a capture two
// clusters on, never parked), and every other experiment — the later
// clusters' included — byte-identical to a campaign without poison. The CI
// race job runs this test under -race.
func TestPoisonStress(t *testing.T) {
	gpu := config.RTX2060()
	app, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	poison := map[int]bool{2: true, 9: true, 23: true, 24: true, 41: true}
	mk := func() (*CampaignConfig, *journalRecorder) {
		rec := newJournalRecorder()
		return &CampaignConfig{App: app, GPU: gpu, Kernel: "va_add", Structure: sim.StructRegFile,
			Runs: 48, Bits: 1, Seed: 29, Workers: 16, Journal: rec.journal}, rec
	}
	cfg, clean := mk()
	if _, err := RunCampaign(nil, cfg, prof); err != nil {
		t.Fatal(err)
	}
	of, clusters := clusterOf(t, cfg, prof)
	poisonedClusters := make(map[int]bool)
	for id := range poison {
		poisonedClusters[of[id]] = true
	}

	sim.DrainPool()
	_, _, discardedBefore := SandboxStats()
	before, ahead := EngineStats(), prefixAhead(t)
	cfg, rec := mk()
	cfg.ExperimentHook = func(id int, spec *sim.FaultSpec) {
		if poison[id] {
			if k := of[id]; k < len(clusters)-1 {
				ahead(k)
			}
			panic("stress poison")
		}
	}
	res, err := RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	after := EngineStats()
	if len(res.Exps) != 48 {
		t.Fatalf("stress campaign finished %d of 48", len(res.Exps))
	}
	for i, exp := range res.Exps {
		if poison[i] != exp.Quarantined {
			t.Errorf("exp %d: quarantined=%v, want %v", i, exp.Quarantined, poison[i])
		}
		if poison[i] && exp.Outcome != avf.Crash {
			t.Errorf("poison exp %d classified %s, want Crash", i, exp.Effect)
		}
		if !poison[i] && !bytes.Equal(rec.recs[i], clean.recs[i]) {
			t.Errorf("exp %d (cluster %d) diverged from the campaign without poison:\n  got  %s\n  want %s", i, of[i], rec.recs[i], clean.recs[i])
		}
	}
	if _, _, discarded := SandboxStats(); discarded-discardedBefore != int64(len(poison)) {
		t.Errorf("vessels discarded rose by %d, want %d", discarded-discardedBefore, len(poison))
	}
	// A dropped template shows two captures later, when the prefix finds no
	// spare to capture into and takes other storage, which has no provenance:
	// one full capture per poisoned cluster that has a cluster two after it,
	// on top of the run's first two.
	wantFull := int64(2)
	for k := range poisonedClusters {
		if k+2 < len(clusters) {
			wantFull++
		}
	}
	if got := after.COWFullCaptures - before.COWFullCaptures; got != wantFull {
		t.Errorf("%d full captures, want %d: the templates of the %d poisoned clusters must be dropped, and only those",
			got, wantFull, len(poisonedClusters))
	}
	// The pool was empty, so what the run built and did not park is what it
	// dropped: those templates, and the poisoned vessels that held storage (a
	// worker poisoned on its first experiment drops a shell).
	dropped := (after.DevicesBuilt - before.DevicesBuilt) - (after.DevicesParked - before.DevicesParked)
	if lo, hi := int64(len(poisonedClusters)), int64(len(poisonedClusters)+len(poison)); dropped < lo || dropped > hi {
		t.Errorf("%d devices dropped, want %d to %d", dropped, lo, hi)
	}
}

// TestExpTimeoutValidate rejects a negative per-experiment deadline.
func TestExpTimeoutValidate(t *testing.T) {
	app, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &CampaignConfig{App: app, GPU: config.RTX2060(), Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 10, Bits: 1, ExpTimeout: -time.Second}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a negative ExpTimeout")
	}
}

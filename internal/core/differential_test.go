package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// This file is the differential gate on the copy-on-write fork engine:
// every campaign must be bit-identical whether vessels restore through
// the COW delta protocol (what ships) or through eager deep clones (the
// unexported CampaignConfig.deepClone baseline). Identity is checked at the strongest
// observable layer — the exact journal record bytes per experiment and
// the exact trace bytes per experiment — across all twelve paper
// benchmarks on two GPU presets, including the poison/quarantine path.

// journalRecorder captures the serialized journal and trace bytes of a
// campaign, keyed by experiment ID (completion order varies with worker
// scheduling, so byte streams are compared per ID, not per arrival).
type journalRecorder struct {
	mu     sync.Mutex
	recs   map[int][]byte
	traces map[int][]byte
}

func newJournalRecorder() *journalRecorder {
	return &journalRecorder{recs: make(map[int][]byte), traces: make(map[int][]byte)}
}

func (r *journalRecorder) journal(exp Experiment) error {
	b, err := json.Marshal(exp)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.recs[exp.ID] = b
	r.mu.Unlock()
	return nil
}

func (r *journalRecorder) trace(tr ExperimentTrace) error {
	b, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.traces[tr.ID] = b
	r.mu.Unlock()
	return nil
}

// diffRecorders compares two recorders' byte maps entry by entry.
func diffRecorders(t *testing.T, label string, cow, deep *journalRecorder) {
	t.Helper()
	if len(cow.recs) != len(deep.recs) {
		t.Errorf("%s: %d COW journal records vs %d deep-clone", label, len(cow.recs), len(deep.recs))
		return
	}
	for id, cb := range cow.recs {
		db, ok := deep.recs[id]
		if !ok {
			t.Errorf("%s: experiment %d journaled by COW only", label, id)
			continue
		}
		if !bytes.Equal(cb, db) {
			t.Errorf("%s: journal bytes diverged for experiment %d:\n  cow:  %s\n  deep: %s", label, id, cb, db)
		}
	}
	if len(cow.traces) != len(deep.traces) {
		t.Errorf("%s: %d COW traces vs %d deep-clone", label, len(cow.traces), len(deep.traces))
		return
	}
	for id, cb := range cow.traces {
		db, ok := deep.traces[id]
		if !ok {
			t.Errorf("%s: experiment %d traced by COW only", label, id)
			continue
		}
		if !bytes.Equal(cb, db) {
			t.Errorf("%s: trace bytes diverged for experiment %d:\n  cow:  %s\n  deep: %s", label, id, cb, db)
		}
	}
}

// runDifferentialPair runs the same campaign point twice — deep-clone
// baseline and COW — and checks Counts, per-experiment fields, and the
// journal/trace byte maps for exact equality.
func runDifferentialPair(t *testing.T, label string, base CampaignConfig, prof *Profile) {
	t.Helper()
	run := func(deepClone bool) (*CampaignResult, *journalRecorder) {
		rec := newJournalRecorder()
		cfg := base // struct copy; hooks below are per-run
		cfg.deepClone = deepClone
		cfg.Journal = rec.journal
		if cfg.Trace {
			cfg.TraceSink = rec.trace
		}
		res, err := RunCampaign(nil, &cfg, prof)
		if err != nil {
			t.Fatalf("%s deepClone=%v: %v", label, deepClone, err)
		}
		return res, rec
	}
	deepRes, deepRec := run(true)
	cowRes, cowRec := run(false)

	if cowRes.Counts != deepRes.Counts {
		t.Errorf("%s: COW counts %+v vs deep-clone %+v", label, cowRes.Counts, deepRes.Counts)
	}
	if len(cowRes.Exps) != len(deepRes.Exps) {
		t.Fatalf("%s: %d COW experiments vs %d deep-clone", label, len(cowRes.Exps), len(deepRes.Exps))
	}
	for i := range cowRes.Exps {
		c, d := cowRes.Exps[i], deepRes.Exps[i]
		if c.Effect != d.Effect || c.Cycles != d.Cycles || c.Detail != d.Detail ||
			c.Injected != d.Injected || c.Quarantined != d.Quarantined || c.Why != d.Why {
			t.Errorf("%s exp %d: COW {%s %d %q inj=%v q=%v why=%q} deep {%s %d %q inj=%v q=%v why=%q}",
				label, i, c.Effect, c.Cycles, c.Detail, c.Injected, c.Quarantined, c.Why,
				d.Effect, d.Cycles, d.Detail, d.Injected, d.Quarantined, d.Why)
		}
	}
	diffRecorders(t, label, cowRec, deepRec)
}

// TestCOWDeepCloneDifferentialAllBenchmarks sweeps every paper benchmark
// on two GPU presets (Turing RTX 2060 and Kepler GTX Titan — the latter
// has no L1D, exercising the nil-cache sync legs), alternating the target
// structure between the register file (mem/resident-state COW) and the
// L2 (cache COW). The journal record bytes must match the deep-clone
// baseline exactly.
func TestCOWDeepCloneDifferentialAllBenchmarks(t *testing.T) {
	presets := []struct {
		name string
		gpu  *config.GPU
	}{
		{"RTX2060", config.RTX2060()},
		{"GTXTitan", config.GTXTitan()},
	}
	apps := bench.All()
	if testing.Short() {
		apps = apps[:3]
		presets = presets[:1]
	}
	structures := []sim.Structure{sim.StructRegFile, sim.StructL2}
	for _, ps := range presets {
		for i, app := range apps {
			st := structures[i%len(structures)]
			prof, err := ProfileApp(nil, app, ps.gpu)
			if err != nil {
				t.Fatalf("%s/%s profile: %v", ps.name, app.Name, err)
			}
			label := ps.name + "/" + app.Name + "/" + st.String()
			runDifferentialPair(t, label, CampaignConfig{
				App: app, GPU: ps.gpu, Kernel: app.Kernels[0], Structure: st,
				Runs: 12, Bits: 1, Seed: 23, Workers: 4,
			}, prof)
		}
	}
}

// TestCOWDeepCloneDifferentialStructures covers the structures the
// benchmark sweep leaves out — shared memory and the L1 data cache, plus
// a warp-wide multi-bit register campaign — on kernels known to exercise
// them.
func TestCOWDeepCloneDifferentialStructures(t *testing.T) {
	gpu := config.RTX2060()
	for _, tc := range []struct {
		app      string
		kernel   string
		st       sim.Structure
		bits     int
		warpWide bool
	}{
		{"BP", "bp_forward", sim.StructShared, 1, false},
		{"NW", "nw_diag", sim.StructL1D, 1, false},
		{"LUD", "lud_update", sim.StructRegFile, 3, true},
	} {
		app, err := bench.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := ProfileApp(nil, app, gpu)
		if err != nil {
			t.Fatal(err)
		}
		label := tc.app + "/" + tc.st.String()
		runDifferentialPair(t, label, CampaignConfig{
			App: app, GPU: gpu, Kernel: tc.kernel, Structure: tc.st,
			Runs: 15, Bits: tc.bits, Seed: 5, Workers: 4, WarpWide: tc.warpWide,
		}, prof)
	}
}

// TestCOWDeepCloneDifferentialTraced repeats the differential check with
// fault-propagation tracing enabled: the per-experiment trace bytes (the
// injection site, first read, taint hops and Why classification) must be
// identical across protocols, and so must the journal records, whose Why
// field is populated when tracing is on.
func TestCOWDeepCloneDifferentialTraced(t *testing.T) {
	gpu := config.RTX2060()
	app, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	runDifferentialPair(t, "VA/traced", CampaignConfig{
		App: app, GPU: gpu, Kernel: "va_add", Structure: sim.StructRegFile,
		Runs: 20, Bits: 1, Seed: 31, Workers: 4, Trace: true,
	}, prof)
}

// TestCOWDeepCloneDifferentialPoisonPath forces experiments through the
// sandbox's panic boundary on both protocols: the induced-crash
// experiments must quarantine identically, and — more importantly — the
// experiments that run AFTER a poisoned vessel was discarded must still
// be bit-identical, proving the COW self-heal path (fresh fork, new
// provenance baseline) converges to the same state as a deep clone.
func TestCOWDeepCloneDifferentialPoisonPath(t *testing.T) {
	gpu := config.RTX2060()
	app, err := bench.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	runDifferentialPair(t, "BFS/poison", CampaignConfig{
		App: app, GPU: gpu, Kernel: "bfs_k1", Structure: sim.StructRegFile,
		Runs: 20, Bits: 1, Seed: 13, Workers: 2,
		ExperimentHook: func(id int, spec *sim.FaultSpec) {
			if id%7 == 3 {
				panic("differential-test: induced poison")
			}
		},
	}, prof)
}

// TestForkedPartialRunIsAnError pins the fix for the silent-partial bug:
// if the fault-free prefix run returns cleanly without visiting every
// planned snapshot cycle (an app wrapper that never reaches the recorded
// launches, or a cycle plan past the execution's end), the campaign must
// fail loudly instead of reporting the empty subset as a clean success.
func TestForkedPartialRunIsAnError(t *testing.T) {
	gpu := config.RTX2060()
	real, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, real, gpu)
	if err != nil {
		t.Fatal(err)
	}
	// The profile (and so the injection-cycle windows) comes from the real
	// application, but the campaign runs a stunted wrapper whose Run never
	// launches anything: the prefix finishes without hitting a single
	// snapshot cycle, so no experiment can ever fork.
	stunted := &bench.App{
		Name:      real.Name,
		Kernels:   real.Kernels,
		Reference: real.Reference,
		RefOK:     real.RefOK,
		Run: func(g *sim.GPU) ([]byte, error) {
			return append([]byte(nil), prof.Golden...), nil
		},
	}
	res, err := RunCampaign(nil, &CampaignConfig{
		App: stunted, GPU: gpu, Kernel: "va_add", Structure: sim.StructRegFile,
		Runs: 10, Bits: 1, Seed: 3, Workers: 2,
	}, prof)
	if err == nil {
		t.Fatal("campaign with an unreachable snapshot plan returned a nil error")
	}
	if !strings.Contains(err.Error(), "snapshot cluster") {
		t.Fatalf("unexpected error: %v", err)
	}
	if res == nil {
		t.Fatal("partial-run error should still return the finished subset")
	}
	if got := res.Counts.Total(); got != 0 {
		t.Fatalf("stunted run completed %d experiments, want 0", got)
	}
}

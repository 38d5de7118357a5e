package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// This file is the differential gate on the fork engine: every campaign
// must be bit-identical to the replay oracle (oracle_test.go), which
// simulates each experiment from cycle 0 on a new device and so shares no
// snapshot, fork or restore code with the engine. Identity is checked at
// the strongest observable layer — the exact journal record bytes per
// experiment and the exact trace bytes per experiment — across all twelve
// paper benchmarks on two GPU presets, including the poison/quarantine
// path.

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

// record is a campaign sink: the experiment's journal bytes and, when it
// carries one, its trace's.
func (r *journalRecorder) record(exp Experiment) error {
	b, err := json.Marshal(exp)
	if err != nil {
		return err
	}
	var tb []byte
	if exp.Trace != nil {
		if tb, err = json.Marshal(exp.Trace); err != nil {
			return err
		}
	}
	r.mu.Lock()
	r.recs[exp.ID] = b
	if tb != nil {
		r.traces[exp.ID] = tb
	}
	r.mu.Unlock()
	return nil
}

// sameBytes requires two runs of a point, named by names, to have
// journaled and traced the same experiments with the same bytes.
func sameBytes(t *testing.T, label string, names [2]string, a, b *journalRecorder) {
	t.Helper()
	for _, kind := range []struct {
		what string
		a, b map[int][]byte
	}{{"journal record", a.recs, b.recs}, {"trace", a.traces, b.traces}} {
		if len(kind.a) != len(kind.b) {
			t.Errorf("%s: %d %ss %s, %d %s", label, len(kind.a), kind.what, names[0], len(kind.b), names[1])
		}
		for id, bb := range kind.b {
			if ab := kind.a[id]; !bytes.Equal(ab, bb) {
				t.Errorf("%s: %s of experiment %d differs\n  %s: %s\n  %s: %s", label, kind.what, id, names[0], ab, names[1], bb)
			}
		}
	}
}

// replayView is an experiment as the replay oracle can reproduce it. A
// quarantined record's cycle count is the clock of the device the panic
// left behind, and its stack digest names the engine's call path: both
// depend on the engine, so neither is compared.
func replayView(exp Experiment) Experiment {
	if exp.Quarantined {
		exp.Cycles = 0
		exp.Detail, _, _ = strings.Cut(exp.Detail, " stack ")
	}
	return exp
}

// runReplayDifferential runs the same campaign point on the fork engine and
// on the replay oracle and requires equal Counts and per-ID journal and
// trace bytes. The oracle's experiments are independent of one another, so
// it runs on four workers whatever the fork engine's count.
func runReplayDifferential(t *testing.T, label string, cfg CampaignConfig, prof *Profile) {
	t.Helper()
	names := [2]string{"fork", "replay"}
	var res [2]*CampaignResult
	var recs [2]*journalRecorder
	for k, engine := range []func(context.Context, *CampaignConfig, *Profile) (*CampaignResult, error){RunCampaign, replayCampaign} {
		c, rec := cfg, newJournalRecorder() // struct copy; the sink is per run
		c.Sink = func(exp Experiment) error { return rec.record(replayView(exp)) }
		if k == 1 {
			c.Workers = 4
		}
		r, err := engine(nil, &c, prof)
		if err != nil {
			t.Fatalf("%s (%s): %v", label, names[k], err)
		}
		res[k], recs[k] = r, rec
	}
	if res[0].Counts != res[1].Counts {
		t.Errorf("%s: fork counts %+v vs replay %+v", label, res[0].Counts, res[1].Counts)
	}
	if n := len(recs[1].recs); n != cfg.Runs {
		t.Errorf("%s: the oracle journaled %d experiments of %d", label, n, cfg.Runs)
	}
	sameBytes(t, label, names, recs[0], recs[1])
}

// TestCOWReplayDifferentialAllBenchmarks sweeps every paper benchmark on
// two GPU presets (Turing RTX 2060 and Kepler GTX Titan — the latter has no
// L1D, exercising the nil-cache sync legs), alternating the target
// structure between the register file (mem/resident-state COW) and the L2
// (cache COW). The fork engine runs on one worker, so one vessel walks
// every cluster of a point in order and its restores take the delta legs;
// the test requires that most of them did, or it would hold the full legs
// (a copy of everything) to the oracle and the delta legs to nothing.
func TestCOWReplayDifferentialAllBenchmarks(t *testing.T) {
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
		before := EngineStats()
		for i, app := range apps {
			st := structures[i%len(structures)]
			prof, err := ProfileApp(nil, app, ps.gpu)
			if err != nil {
				t.Fatalf("%s/%s profile: %v", ps.name, app.Name, err)
			}
			label := ps.name + "/" + app.Name + "/" + st.String()
			runReplayDifferential(t, label, CampaignConfig{
				App: app, GPU: ps.gpu, Kernel: app.Kernels[0], Structure: st,
				Runs: 12, Bits: 1, Seed: 23, Workers: 1,
			}, prof)
		}
		after := EngineStats()
		restores, full := after.COWRestores-before.COWRestores, after.COWFullRestores-before.COWFullRestores
		if restores == 0 || 2*full >= restores {
			t.Errorf("%s: %d of %d restores took the full legs, want fewer than half", ps.name, full, restores)
		}
	}
}

// TestCOWReplayDifferentialStructures covers the structures the benchmark
// sweep leaves out — shared memory, the L1 data cache and a structure the
// kernel does not have — plus a warp-wide multi-bit register campaign, on
// kernels known to exercise them.
func TestCOWReplayDifferentialStructures(t *testing.T) {
	gpu := config.RTX2060()
	profs := map[string]*Profile{}
	for _, tc := range []struct {
		app      string
		kernel   string
		st       sim.Structure
		runs     int
		seed     int64
		bits     int
		warpWide bool
	}{
		{"BP", "bp_forward", sim.StructShared, 15, 5, 1, false},
		{"NW", "nw_diag", sim.StructL1D, 15, 5, 1, false},
		{"LUD", "lud_update", sim.StructRegFile, 15, 5, 3, true},
		{"HS", "hs_step", sim.StructLocal, 15, 5, 1, false}, // absent: hs_step uses no local memory
	} {
		app, err := bench.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		prof := profs[tc.app]
		if prof == nil {
			if prof, err = ProfileApp(nil, app, gpu); err != nil {
				t.Fatal(err)
			}
			profs[tc.app] = prof
		}
		label := fmt.Sprintf("%s/%s/%s/seed %d", tc.app, tc.kernel, tc.st, tc.seed)
		runReplayDifferential(t, label, CampaignConfig{
			App: app, GPU: gpu, Kernel: tc.kernel, Structure: tc.st,
			Runs: tc.runs, Bits: tc.bits, Seed: tc.seed, Workers: 4, WarpWide: tc.warpWide,
		}, prof)
	}
}

// TestCOWReplayDifferentialTraced repeats the differential check with
// fault-propagation tracing enabled: the per-experiment trace bytes (the
// injection site, first read, taint hops and Why classification) must be
// identical to the oracle's, and so must the journal records, whose Why
// field is populated when tracing is on.
func TestCOWReplayDifferentialTraced(t *testing.T) {
	gpu := config.RTX2060()
	app, err := bench.ByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	runReplayDifferential(t, "VA/traced", CampaignConfig{
		App: app, GPU: gpu, Kernel: "va_add", Structure: sim.StructRegFile,
		Runs: 20, Bits: 1, Seed: 31, Workers: 4, Trace: true,
	}, prof)
}

// TestCOWReplayDifferentialPoisonPath forces experiments through the
// sandbox's panic boundary: the induced-crash experiments must quarantine
// as the oracle's do, and — more importantly — the experiments that run
// AFTER a poisoned vessel was discarded must still be bit-identical,
// proving the COW self-heal path (fresh fork, new provenance baseline)
// converges to the state a simulation from cycle 0 reaches.
func TestCOWReplayDifferentialPoisonPath(t *testing.T) {
	gpu := config.RTX2060()
	app, err := bench.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	defer SetExperimentHook(SetExperimentHook(func(id int, spec *sim.FaultSpec) {
		if id%7 == 3 {
			panic("differential-test: induced poison")
		}
	}))
	runReplayDifferential(t, "BFS/poison", CampaignConfig{
		App: app, GPU: gpu, Kernel: "bfs_k1", Structure: sim.StructRegFile,
		Runs: 20, Bits: 1, Seed: 13, Workers: 2,
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

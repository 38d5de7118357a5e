package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"gpufi/internal/asm"
	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/plan"
	"gpufi/internal/sim"
)

// This file is the gate on the device pool: a campaign must not be able to
// tell storage another campaign just parked — another application's memory
// image, other resident lines and armed hooks, another protection model,
// a template where it wants a vessel — from storage nobody has used. It is
// checked where the COW differential is, on the journal and trace bytes.

// spillApp is a one-kernel application whose threads keep their accumulator
// in local memory: none of the twelve benchmarks has any, and the pool must
// be held to all eight structures.
func spillApp(t *testing.T) *bench.App {
	t.Helper()
	progs, err := asm.AssembleAll(`
.kernel spill
.local 16
	S2R  R0, %gtid
	LDC  R3, c[0]
	MOV  R1, R0
	MOV  R5, 0
	MOV  R8, 12
	MOV  R9, 3
spill_loop:
	ISETP.GE P0, R5, R8
@P0	BRA  spill_done
	STL  [0], R1
	STL  [4], R5
	LDL  R6, [0]
	LDL  R7, [4]
	IMUL R6, R6, R9
	IADD R1, R6, R7
	IADD R5, R5, 1
	BRA  spill_loop
spill_done:
	SHL  R4, R0, 2
	IADD R4, R3, R4
	STG  [R4], R1
	EXIT
`)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 8 * 64
	ref := make([]byte, 4*threads)
	for tid := uint32(0); tid < threads; tid++ {
		acc := tid
		for i := uint32(0); i < 12; i++ {
			acc = acc*3 + i
		}
		binary.LittleEndian.PutUint32(ref[4*tid:], acc)
	}
	return &bench.App{
		Name: "SPILL", Kernels: []string{"spill"}, Reference: ref,
		RefOK: func(out []byte) bool { return bytes.Equal(out, ref) },
		Run: func(g *sim.GPU) ([]byte, error) {
			dout, err := g.Malloc(4 * threads)
			if err != nil {
				return nil, err
			}
			if _, err := g.Launch(progs["spill"], sim.Dim1(8), sim.Dim1(64), dout); err != nil {
				return nil, err
			}
			out := make([]byte, 4*threads)
			return out, g.MemcpyDtoH(out, dout)
		},
	}
}

// poolPoint is one campaign of a differential chain, with its profile.
type poolPoint struct {
	name string
	cfg  CampaignConfig
	prof *Profile
}

const poolWorkers = 2

// runDevices is how many devices one engine run holds at its peak, exactly:
// the prefix device, the two snapshot templates it captures into in turn —
// the second is taken only when a second cluster exists — and one vessel per
// worker that ever gets a job.
func runDevices(workers, clusters, jobs int) int64 {
	return int64(1 + min(clusters, 2) + min(workers, jobs))
}

// poolChain is a sequence of campaigns in which every neighbour differs in
// what parked storage could leak: all eight structures, ECC off→on→off, six
// applications, RTX 2060 → GTX Titan (no L1D) → RTX 2060, a multi-bit
// warp-wide point, a traced and an adaptive campaign.
func poolChain(t *testing.T) []poolPoint {
	t.Helper()
	rtx := func(ecc bool) *config.GPU { g := config.RTX2060(); g.ECC = ecc; return g }
	var chain []poolPoint
	add := func(name string, app *bench.App, gpu *config.GPU, cfg CampaignConfig) {
		prof, err := ProfileApp(nil, app, gpu)
		if err != nil {
			t.Fatalf("%s profile: %v", name, err)
		}
		cfg.App, cfg.GPU, cfg.Bits, cfg.Workers = app, gpu, max(cfg.Bits, 1), poolWorkers
		if cfg.Runs == 0 {
			cfg.Runs = 12
		}
		chain = append(chain, poolPoint{name, cfg, prof})
	}
	named := func(n string) *bench.App {
		app, err := bench.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	add("VA/regfile", named("VA"), rtx(false), CampaignConfig{Kernel: "va_add", Structure: sim.StructRegFile, Seed: 3})
	add("BP/shared/ecc", named("BP"), rtx(true), CampaignConfig{Kernel: "bp_forward", Structure: sim.StructShared, Bits: 2, Seed: 5})
	add("NW/l1d", named("NW"), rtx(false), CampaignConfig{Kernel: "nw_diag", Structure: sim.StructL1D, Seed: 7})
	add("SPILL/local/ecc", spillApp(t), rtx(true), CampaignConfig{Kernel: "spill", Structure: sim.StructLocal, Bits: 3, Seed: 9})
	add("HS/l1t", named("HS"), rtx(true), CampaignConfig{Kernel: named("HS").Kernels[0], Structure: sim.StructL1T, Seed: 11})
	add("GE/l2", named("GE"), rtx(false), CampaignConfig{Kernel: "ge_fan2", Structure: sim.StructL2, Seed: 13})
	add("Titan/VA/regfile", named("VA"), config.GTXTitan(), CampaignConfig{Kernel: "va_add", Structure: sim.StructRegFile, Seed: 15})
	add("Titan/GE/l2", named("GE"), config.GTXTitan(), CampaignConfig{Kernel: "ge_fan2", Structure: sim.StructL2, Seed: 17})
	add("KM/l1c", named("KM"), rtx(false), CampaignConfig{Kernel: named("KM").Kernels[0], Structure: sim.StructL1C, Seed: 19})
	add("BFS/l1i/ecc", named("BFS"), rtx(true), CampaignConfig{Kernel: "bfs_k1", Structure: sim.StructL1I, Bits: 2, Seed: 21})
	add("LUD/regfile/warp", named("LUD"), rtx(false), CampaignConfig{Kernel: "lud_update", Structure: sim.StructRegFile, Bits: 3, WarpWide: true, Seed: 23})
	add("VA/traced", named("VA"), rtx(false), CampaignConfig{Kernel: "va_add", Structure: sim.StructRegFile, Seed: 25, Trace: true})
	add("VA/adaptive", named("VA"), rtx(false), CampaignConfig{Kernel: "va_add", Structure: sim.StructRegFile, Seed: 27,
		Runs: 60, Plan: &plan.Rule{TargetCI: 0.15, Confidence: 0.95, MinRuns: 30}})
	return chain
}

// run executes the point and returns its journal and trace bytes by
// experiment.
func (p *poolPoint) run(t *testing.T) *journalRecorder {
	t.Helper()
	rec := newJournalRecorder()
	cfg := p.cfg
	cfg.Journal = rec.journal
	if cfg.Trace {
		cfg.TraceSink = rec.trace
	}
	if _, err := RunCampaign(nil, &cfg, p.prof); err != nil {
		t.Errorf("%s: %v", p.name, err)
	}
	return rec
}

// sameBytes requires the pooled and the fresh run of a point to have
// journaled and traced the same experiments with the same bytes.
func sameBytes(t *testing.T, label string, pooled, fresh *journalRecorder) {
	t.Helper()
	for _, kind := range []struct {
		what          string
		pooled, fresh map[int][]byte
	}{{"journal record", pooled.recs, fresh.recs}, {"trace", pooled.traces, fresh.traces}} {
		if len(kind.pooled) != len(kind.fresh) {
			t.Errorf("%s: %d %ss on pooled storage, %d on fresh", label, len(kind.pooled), kind.what, len(kind.fresh))
		}
		for id, fb := range kind.fresh {
			if pb := kind.pooled[id]; !bytes.Equal(pb, fb) {
				t.Errorf("%s: %s of experiment %d differs\n  pooled: %s\n  fresh:  %s", label, kind.what, id, pb, fb)
			}
		}
	}
}

// TestPooledVsFreshDifferential runs the chain back to back, every campaign
// on whatever its predecessors parked, then each campaign alone on an empty
// pool, and requires byte-identical journals and traces.
func TestPooledVsFreshDifferential(t *testing.T) {
	chain, shapes := poolChain(t), int64(2)
	if testing.Short() {
		chain, shapes = chain[:4], 1 // the GTX Titan comes later
	}
	sim.DrainPool()
	built := EngineStats().DevicesBuilt
	pooled := make([]*journalRecorder, len(chain))
	for i := range chain {
		pooled[i] = chain[i].run(t)
	}
	// Two shapes in the full chain, and every campaign of it has clusters and jobs
	// to spare: everything past the first campaign of a shape ran on a
	// predecessor's storage. A run that dropped a template instead of
	// recycling it would build one more per campaign.
	if got, want := EngineStats().DevicesBuilt-built, shapes*runDevices(poolWorkers, 2, poolWorkers); got != want {
		t.Errorf("the chain built %d devices, want %d", got, want)
	}
	for i := range chain {
		sim.DrainPool()
		before := EngineStats().DevicesBuilt
		fresh := chain[i].run(t)
		if EngineStats().DevicesBuilt-before < 3 {
			t.Errorf("%s: the reference run did not build its devices from nothing", chain[i].name)
		}
		sameBytes(t, chain[i].name, pooled[i], fresh)
	}
}

// TestPooledConcurrentCampaigns runs two campaigns at once on one pool that
// a third has stocked — they race for the parked devices and park their own
// into each other's way — against each alone on an empty pool. The COW race
// step of CI runs it under -race.
func TestPooledConcurrentCampaigns(t *testing.T) {
	chain := poolChain(t)
	pair := []*poolPoint{&chain[2], &chain[5]} // NW/l1d and GE/l2, both on the RTX 2060 shape
	sim.DrainPool()
	chain[1].run(t)
	pooled := make([]*journalRecorder, len(pair))
	for round := 0; round < 2; round++ { // the second round finds what the first parked
		var wg sync.WaitGroup
		for i, p := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pooled[i] = p.run(t)
			}()
		}
		wg.Wait()
		if n, bound := EngineStats().DevicesParked, int64(len(pair))*runDevices(poolWorkers, 2, poolWorkers); n > bound {
			t.Errorf("round %d: %d devices parked, want at most %d", round, n, bound)
		}
	}
	for i, p := range pair {
		sim.DrainPool()
		sameBytes(t, p.name+" (concurrent)", pooled[i], p.run(t))
	}
}

// TestDevicePoolBounded runs 50 campaigns alternating two applications and
// two presets. The pool's rule (DESIGN.md, "Device pool") is that per shape
// parked + in use never exceeds the most devices of that shape in use at
// once, which for campaigns run one after another is runDevices — prefix,
// two templates, a vessel per worker: so the devices built from nothing stop
// at exactly that many per shape however many campaigns follow, no more than
// that are ever parked, and the heap does not grow with campaigns completed.
func TestDevicePoolBounded(t *testing.T) {
	type combo struct {
		cfg  CampaignConfig
		prof *Profile
	}
	var combos []combo
	for _, gpu := range []func() *config.GPU{config.RTX2060, config.GTXTitan} {
		for _, name := range []string{"VA", "SP"} {
			app, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := ProfileApp(nil, app, gpu())
			if err != nil {
				t.Fatal(err)
			}
			combos = append(combos, combo{CampaignConfig{App: app, Kernel: app.Kernels[0],
				Structure: sim.StructRegFile, Runs: 8, Bits: 1, Workers: poolWorkers}, prof})
		}
	}
	sim.DrainPool()
	const shapes, campaigns = 2, 50
	bound := shapes * runDevices(poolWorkers, 2, poolWorkers)
	builtAtStart := EngineStats().DevicesBuilt
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var heapAt10 uint64
	for i := 0; i < campaigns; i++ {
		c := combos[(i+i/4)%len(combos)] // every ordered pair of combos occurs
		cfg := c.cfg
		cfg.Seed = int64(i)
		// A preset is a new pointer on every call: the pool must not care.
		if c.prof.GPU == config.GTXTitan().Name {
			cfg.GPU = config.GTXTitan()
		} else {
			cfg.GPU = config.RTX2060()
		}
		cfg.Progress = func(Experiment) {
			if n := EngineStats().DevicesParked; n > bound {
				t.Errorf("campaign %d: %d devices parked mid-campaign, bound %d", i, n, bound)
			}
		}
		if _, err := RunCampaign(nil, &cfg, c.prof); err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
		st := EngineStats()
		if st.DevicesParked > bound {
			t.Fatalf("after campaign %d: %d devices parked, bound %d", i, st.DevicesParked, bound)
		}
		if built := st.DevicesBuilt - builtAtStart; built > bound {
			t.Fatalf("after campaign %d: %d devices built from nothing, bound %d", i, built, bound)
		}
		if i == 9 {
			heapAt10 = heapInuse()
		}
	}
	if heapAt50 := heapInuse(); heapAt50 > heapAt10+heapAt10/10+(2<<20) {
		t.Errorf("HeapInuse after GC grew from %d MB at campaign 10 to %d MB at campaign 50",
			heapAt10>>20, heapAt50>>20)
	}
	if st := EngineStats(); st.DevicesBuilt-builtAtStart != bound || st.DevicesParked != bound {
		t.Errorf("%d devices built and %d parked after %d campaigns, want exactly %d of each: a template was dropped or never taken",
			st.DevicesBuilt-builtAtStart, st.DevicesParked, campaigns, bound)
	}
	if EngineStats().ForksCreated > EngineStats().DevicesBuilt {
		t.Errorf("more vessels than devices built from nothing")
	}
}

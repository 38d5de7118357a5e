package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The benchmarks in bench_test.go borrow their devices where there is a pool.
func init() { borrowDevice = Borrow }

// miniCampaign drives the device lifecycle of one campaign on cfg the way
// internal/core does: a borrowed recording prefix that pauses at two cycles
// of a vecadd launch, one vessel that runs a fault at each (a new fork at the
// first snapshot, reforked at the second), recycle, release. It returns the
// bytes the faulty runs produced and the devices it used, so a test can ask
// what became of them.
type miniCampaign struct {
	outputs        [][]byte
	prefix, vessel *GPU
	templates      []*GPU
}

func runMiniCampaign(t *testing.T, n int, spec func(after uint64) *FaultSpec, recycle bool) *miniCampaign {
	t.Helper()
	gold := newTestGPU(t)
	if _, err := vecaddCalls(t, gold, n); err != nil {
		t.Fatal(err)
	}
	lr := gold.Launches()[0]
	mc := &miniCampaign{}
	prefix, err := Borrow(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mc.prefix = prefix
	prefix.EnableRecording()
	stops := []uint64{lr.StartCycle + lr.Cycles/3, lr.StartCycle + 2*lr.Cycles/3}
	prefix.SnapshotAt(stops, func(s *Snapshot) error {
		mc.templates = append(mc.templates, s.gpu)
		if mc.vessel == nil {
			mc.vessel = NewFork(s)
		} else {
			mc.vessel.Refork(s)
		}
		if err := mc.vessel.ArmFault(spec(s.Cycle)); err != nil {
			t.Fatal(err)
		}
		out, err := vecaddCalls(t, mc.vessel, n)
		mc.outputs = append(mc.outputs, append(out, fmt.Sprint(err, mc.vessel.Cycle())...))
		if recycle {
			prefix.RecycleSnapshot(s)
		}
		return nil
	})
	if _, err := vecaddCalls(t, prefix, n); err != nil {
		t.Fatal(err)
	}
	mc.vessel.Release()
	prefix.Release()
	return mc
}

func l2Fault(after uint64) *FaultSpec {
	return &FaultSpec{Structure: StructL2, Cycle: after + 3, BitPositions: []int64{61, 1200}, Seed: 9}
}

func regFault(after uint64) *FaultSpec {
	return &FaultSpec{Structure: StructRegFile, Cycle: after + 2, BitPositions: []int64{5*32 + 3}, Seed: 4}
}

// TestBorrowedDeviceMatchesNew runs an application on a device borrowed
// after another campaign left its storage dirty — other allocations, other
// resident lines, armed hooks, statistics, tracked pages — and on a device
// from New, and requires everything observable to agree: output, cycles,
// launch results and every memory-system counter.
func TestBorrowedDeviceMatchesNew(t *testing.T) {
	DrainPool()
	runMiniCampaign(t, 512, l2Fault, true)
	parked := PoolStats().DevicesParked
	if parked != 3 {
		t.Fatalf("campaign parked %d devices, want its prefix, template and vessel", parked)
	}
	for round := 0; round < 3; round++ {
		built := PoolStats().DevicesBuilt
		cfg := testConfig()
		cfg.ECC = round == 1
		got, err := Borrow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if PoolStats().DevicesBuilt != built {
			t.Fatalf("round %d: Borrow built a device with %d parked", round, parked)
		}
		if got.Config() != cfg {
			t.Fatalf("round %d: borrowed device runs under another configuration", round)
		}
		want, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 200 + 100*round
		gotOut, wantOut := runVecadd(t, got, n), runVecadd(t, want, n)
		for i := range wantOut {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("round %d: element %d = %v on the borrowed device, %v on a new one", round, i, gotOut[i], wantOut[i])
			}
		}
		if got.Cycle() != want.Cycle() || fmt.Sprint(got.Launches()) != fmt.Sprint(want.Launches()) {
			t.Fatalf("round %d: borrowed device took %d cycles %v, new one %d %v",
				round, got.Cycle(), got.Launches(), want.Cycle(), want.Launches())
		}
		if g, w := got.StatsReport(), want.StatsReport(); g != w {
			t.Fatalf("round %d: statistics differ\nborrowed:\n%s\nnew:\n%s", round, g, w)
		}
		// Leave it dirty in a different way each round.
		got.l2.InjectBit(int64(57 + round))
		got.Release()
	}
}

// TestPoolKeyIsShapeByValue: two configurations that are different pointers
// share storage when their shapes agree whatever else differs, and do not
// when a cache geometry differs or a level is missing.
func TestPoolKeyIsShapeByValue(t *testing.T) {
	DrainPool()
	first, err := Borrow(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	first.Release()
	for _, tc := range []struct {
		name   string
		mutate func() *GPU
		hit    bool
	}{
		{"same preset, new pointer", func() *GPU { g, _ := Borrow(testConfig()); return g }, true},
		{"ECC, lenient memory, latency", func() *GPU {
			cfg := testConfig()
			cfg.ECC, cfg.LenientMemory, cfg.DRAMLatency = true, true, cfg.DRAMLatency+7
			g, _ := Borrow(cfg)
			return g
		}, true},
		{"no L1D", func() *GPU {
			cfg := testConfig()
			cfg.L1D = nil
			g, _ := Borrow(cfg)
			return g
		}, false},
		{"wider L2", func() *GPU {
			cfg := testConfig()
			l2 := *cfg.L2
			l2.Ways *= 2
			cfg.L2 = &l2
			g, _ := Borrow(cfg)
			return g
		}, false},
		{"more SMs", func() *GPU {
			cfg := testConfig()
			cfg.SMs++
			g, _ := Borrow(cfg)
			return g
		}, false},
	} {
		built := PoolStats().DevicesBuilt
		g := tc.mutate()
		if g == nil {
			t.Fatalf("%s: Borrow failed", tc.name)
		}
		if hit := PoolStats().DevicesBuilt == built; hit != tc.hit {
			t.Errorf("%s: served from the pool %v, want %v", tc.name, hit, tc.hit)
		}
		if tc.hit {
			g.Release() // keep one device of the base shape parked for the next case
		}
	}
}

// TestNeverParked: a fork shell that never restored and a vessel whose
// storage was scribbled on leave nothing in the pool.
func TestNeverParked(t *testing.T) {
	DrainPool()
	g := newTestGPU(t)
	p := mustAssemble(t, vecaddAsm)
	if _, err := g.launchSetup(p, Dim1(4), Dim1(64), []uint32{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()

	NewFork(snap).Release() // shell

	poisoned := NewFork(snap)
	poisoned.restore(snap)
	poisoned.mem = nil
	poisoned.Release()

	if n := PoolStats().DevicesParked; n != 0 {
		t.Fatalf("%d devices parked, want none", n)
	}
	// A vessel that restored parks, and so do the device and its template.
	v := NewFork(snap)
	v.restore(snap)
	v.Release()
	g.RecycleSnapshot(snap)
	g.Release()
	if n := PoolStats().DevicesParked; n != 3 {
		t.Fatalf("%d devices parked, want the vessel, the device and its template", n)
	}
	if v.mem != nil || v.l2 != nil || v.cores != nil || g.mem != nil || g.snapScratch != nil {
		t.Fatalf("a released device still points at its storage")
	}
}

// TestParkedStorageKeepsNothingAlive is the leak check: what a campaign's
// devices pointed at that is not itself storage — the device structs, the
// snapshot's resident warps, and a snapshot template that was dropped
// instead of recycled, which the vessel that mirrored it remembers by pointer
// — must be collectable once the devices are released, with their storage
// still parked. (Finalizers do not run on cyclic garbage, and a dropped
// template device is a cycle through its cores, so its acyclic parts stand in
// for it: the memory image, the L2 and a resident lane state.)
func TestParkedStorageKeepsNothingAlive(t *testing.T) {
	DrainPool()
	freed := make(chan string, 16)
	watched := 0
	watch := func(name string, obj any) {
		watched++
		runtime.SetFinalizer(obj, func(any) { freed <- name })
	}
	func() {
		mc := runMiniCampaign(t, 256, regFault, false) // templates dropped, never recycled
		mc.prefix.snapFn = nil                         // the sink above closes over mc: this test's cycle, not the pool's
		watch("prefix device", mc.prefix)
		watch("vessel device", mc.vessel)
		for i, tpl := range mc.templates {
			watch(fmt.Sprintf("template %d memory image", i), tpl.mem)
			watch(fmt.Sprintf("template %d L2", i), tpl.l2)
			for _, c := range tpl.cores {
				if len(c.warps) > 0 {
					watch(fmt.Sprintf("template %d resident lane state", i), c.warps[0].cta.warps[0].st)
					break
				}
			}
		}
	}()
	if watched != 8 {
		t.Fatalf("watching %d objects, want 2 devices and 3 parts of each of 2 templates", watched)
	}
	if n := PoolStats().DevicesParked; n != 2 {
		t.Fatalf("%d devices parked, want the prefix and the vessel", n)
	}
	deadline := time.After(10 * time.Second)
	for got := 0; got < watched; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-deadline:
			t.Fatalf("%d of %d objects collected: parked storage keeps the rest reachable", got, watched)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestPooledCampaignMatchesFresh repeats one campaign on storage another
// campaign (other size, other faults, templates swapped into vessels by the
// pool) just parked, and on storage nobody has used.
func TestPooledCampaignMatchesFresh(t *testing.T) {
	DrainPool()
	fresh := runMiniCampaign(t, 256, regFault, true)
	DrainPool()
	runMiniCampaign(t, 640, l2Fault, true)
	built := PoolStats().DevicesBuilt
	pooled := runMiniCampaign(t, 256, regFault, true)
	// The oracle run inside runMiniCampaign uses New; the campaign itself
	// must not have built anything.
	if got := PoolStats().DevicesBuilt - built; got != 1 {
		t.Fatalf("pooled campaign built %d devices, want only its golden run's", got)
	}
	for i := range fresh.outputs {
		if !bytes.Equal(pooled.outputs[i], fresh.outputs[i]) {
			t.Fatalf("experiment %d differs on pooled storage", i)
		}
	}
}

// TestReforkAllocations pins what one experiment's refork and restore ask of
// the allocator once the vessel has run its first: the seek state, and
// nothing per kernel, per core or per warp.
func TestReforkAllocations(t *testing.T) {
	g := newTestGPU(t)
	if _, err := vecaddCalls(t, g, 64); err != nil { // a finished launch: two kernels' statistics to carry
		t.Fatal(err)
	}
	p := mustAssemble(t, vecaddAsm)
	if _, err := g.launchSetup(p, Dim1(8), Dim1(64), []uint32{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	vessel := NewFork(snap)
	vessel.restore(snap)
	allocs := testing.AllocsPerRun(100, func() {
		vessel.Refork(snap)
		vessel.restore(snap)
	})
	if allocs > 2 {
		t.Fatalf("refork + restore allocates %.0f times, want at most 2", allocs)
	}
}

package sim_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// TestDeadOnArrivalAgreesWithWatchOnAllKernels injects register-file faults
// — single-bit, triple-bit and warp-wide — into every kernel of the twelve
// applications and runs each one that stops dead on arrival again with that
// rule off: the watch, following execution, must see every such seed
// overwritten or exited unread, never read, and the injection must have
// picked the same site. The static verdict is only ever the dynamic one,
// reached early.
func TestDeadOnArrivalAgreesWithWatchOnAllKernels(t *testing.T) {
	cfg := config.RTX2060()
	perWindow := 10
	if testing.Short() {
		perWindow = 2
	}
	total := 0
	for _, name := range bench.Names() {
		app, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gold, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(gold); err != nil {
			t.Fatal(err)
		}
		// A few faults in the first and the last invocation of each kernel.
		rng := rand.New(rand.NewSource(26))
		var specs []*sim.FaultSpec
		kernelOf := map[*sim.FaultSpec]string{}
		stats := gold.KernelStats()
		for _, kname := range gold.KernelNames() {
			ks := stats[kname]
			for _, win := range []sim.CycleWindow{ks.Windows[0], ks.Windows[len(ks.Windows)-1]} {
				for i := 0; i < perWindow; i++ {
					spec := &sim.FaultSpec{Structure: sim.StructRegFile, Seed: rng.Int63(), WarpWide: i%3 == 2,
						Cycle: win.Start + 1 + uint64(rng.Int63n(int64(win.End-win.Start)))}
					for b := 1 + 2*(i%2); b > 0; b-- {
						spec.BitPositions = append(spec.BitPositions, rng.Int63n(int64(ks.RegsPerThread)*32))
					}
					specs = append(specs, spec)
					kernelOf[spec] = kname
				}
			}
		}
		sort.Slice(specs, func(a, b int) bool { return specs[a].Cycle < specs[b].Cycle })
		var at []uint64
		for _, s := range specs {
			if len(at) == 0 || at[len(at)-1] != s.Cycle-1 {
				at = append(at, s.Cycle-1)
			}
		}

		dead := map[string]int{}
		var all, watch *sim.GPU
		run := func(v **sim.GPU, s *sim.Snapshot, spec *sim.FaultSpec, watchOnly bool) *sim.GPU {
			if *v == nil {
				*v = sim.NewFork(s)
			} else {
				(*v).Refork(s)
			}
			g := *v
			g.StopWhenGolden(true)
			g.CycleLimit = 2 * gold.Cycle()
			if watchOnly {
				sim.WatchOnly(g)
			}
			if err := g.ArmFault(spec); err != nil {
				t.Fatal(err)
			}
			app.Run(g) // however the run ends: the verdict is read from the device
			return g
		}
		prefix, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prefix.EnableRecording()
		next := 0
		prefix.SnapshotAt(at, func(s *sim.Snapshot) error {
			for ; next < len(specs) && specs[next].Cycle == s.Cycle+1; next++ {
				spec := specs[next]
				g := run(&all, s, spec, false)
				if g.Stopped() != sim.StopDead {
					continue
				}
				dead[kernelOf[spec]]++
				rec := *g.Injection()
				w := run(&watch, s, spec, true)
				if why := w.Stopped(); why != sim.StopOverwritten && why != sim.StopRetired {
					t.Errorf("%s/%s %+v: dead on arrival, but the watch alone ends with stop reason %d at cycle %d",
						name, kernelOf[spec], *spec, why, w.Cycle())
				}
				if !reflect.DeepEqual(rec, *w.Injection()) {
					t.Errorf("%s/%s %+v: injection record %+v, the watch alone has %+v", name, kernelOf[spec], *spec, rec, *w.Injection())
				}
			}
			if next == len(specs) {
				return sim.ErrReplayStop
			}
			return nil
		})
		if _, err := app.Run(prefix); !errors.Is(err, sim.ErrReplayStop) {
			t.Fatalf("%s: prefix run: %v (%d of %d faults injected)", name, err, next, len(specs))
		}
		for _, g := range []*sim.GPU{all, watch} {
			if g != nil {
				g.Release()
			}
		}
		for _, n := range dead {
			total += n
		}
		t.Logf("%s: %d faults, dead on arrival by kernel: %v", name, len(specs), dead)
	}
	if total == 0 {
		t.Error("no fault in any kernel was dead on arrival: the test shows nothing")
	}
}

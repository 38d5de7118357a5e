package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"gpufi/internal/config"
)

// This file holds a vessel that carries on from a stop (Refork keeps its
// state, seekLaunch resumes without a restore) to the vessel it replaces: one
// restored from the snapshot and run fault-free to the same cycle.

// deviceState is everything simulated about a device, by name, as values two
// devices can be held to with reflect.DeepEqual: memory and caches as
// detached copies (contents, allocator, LRU order, statistics, armed hooks —
// not the copy-on-write bookkeeping, which records how a device got here),
// resident state through every pointer, the launch frame and the statistics.
type deviceState map[string]any

type ctaState struct {
	id, liveWarps int
	smem          []byte
	warps         []warpState
}

type warpState struct {
	slot                int
	lanes               laneTable
	st                  laneState
	stack               []stackEntry
	busyUntil           uint64
	atBarrier, exited   bool
	lastIssue           uint64
	fetchLine           uint32
	fetchValid, watched bool
}

func stateOf(g *GPU) deviceState {
	// A restore refills the slices a vessel holds, a capture into new storage
	// leaves them nil: empty either way.
	kernels := map[string]KernelStats{}
	for name, ks := range g.kernels {
		k := *ks
		k.Windows, k.UsedCores = append([]CycleWindow(nil), k.Windows...), append([]int(nil), k.UsedCores...)
		kernels[name] = k
	}
	s := deviceState{
		"cycle": g.cycle, "memory": g.mem.Clone(), "L2": g.l2.Clone(nil), "L2 bank queues": g.bankFree,
		"kernel statistics": kernels, "kernel order": append([]string(nil), g.kernelSeq...),
		"launches": append([]LaunchResult(nil), g.launches...),
		"program":  g.curProg, "parameters": append([]uint32(nil), g.curParams...), "grid and block": [2]Dim{g.curGrid, g.curBlock},
		"CTA counters":     [3]int{g.nextCTA, g.totalCTAs, g.doneCTAs},
		"launch addresses": [4]uint32{g.localBase, g.localStep, g.paramBase, g.progBase},
		"launch start":     g.launchStart, "launch instructions": g.launchInstr, "launch cores": g.launchCores,
		"violation": g.violation,
	}
	for i, c := range g.cores {
		core := fmt.Sprintf("core %d ", i)
		// readyAt is a cache of the scheduler's (checkLiveState holds it to
		// what it caches) and every copy of a core starts without one.
		s[core+"scalars"] = [6]int{c.liveThreads, c.liveWarps, c.usedThreads, c.usedRegs, c.usedSmem, c.rr}
		s[core+"decodes from cache"] = c.corruptInstr
		for k, l1 := range c.l1s() {
			if l1 != nil {
				s[core+[4]string{"L1D", "L1T", "L1C", "L1I"}[k]] = l1.Clone(nil)
			}
		}
		var ctas []ctaState
		for _, b := range c.ctas {
			bs := ctaState{id: b.id, liveWarps: b.liveWarps, smem: append([]byte(nil), b.smem...)}
			for _, w := range b.warps {
				bs.warps = append(bs.warps, warpState{slot: w.slot, lanes: *w.lanes, st: *w.st, stack: append([]stackEntry(nil), w.stack...),
					busyUntil: w.busyUntil, atBarrier: w.atBarrier, exited: w.exited, lastIssue: w.lastIssue,
					fetchLine: w.fetchLine, fetchValid: w.fetchValid, watched: w.watched})
			}
			ctas = append(ctas, bs)
		}
		s[core+"CTAs"] = ctas
		var order [][2]int // (CTA id, slot) of the issue list
		for _, w := range c.warps {
			order = append(order, [2]int{w.cta.id, w.slot})
		}
		s[core+"issue order"] = order
	}
	return s
}

// differing names the parts of two device states that are not deeply equal.
func differing(a, b deviceState) []string {
	var out []string
	for name, v := range a {
		if !reflect.DeepEqual(v, b[name]) {
			out = append(out, name)
		}
	}
	if len(a) != len(b) {
		out = append(out, "(the devices do not have the same parts)")
	}
	sort.Strings(out)
	return out
}

// goldenAt returns the state of a new fork of snap run fault-free until
// cycle has executed.
func goldenAt(t *testing.T, snap *Snapshot, cycle uint64) deviceState {
	t.Helper()
	ref := NewFork(snap)
	var at deviceState
	ref.SnapshotAt([]uint64{cycle}, func(s *Snapshot) error {
		at = stateOf(s.gpu)
		return ErrReplayStop
	})
	if _, err := watchApp(t, ref); !errors.Is(err, ErrReplayStop) || at == nil {
		t.Fatalf("fault-free fork to cycle %d: %v", cycle, err)
	}
	return at
}

// chainJob is one experiment on the vessel of a chain test.
type chainJob struct {
	name  string
	specs []*FaultSpec
	trace bool
	host  bool // after the run, write to the stopped device from the host

	// What a test built around the job expects of it (runChain reports, the
	// test compares): how the run ends, and whether it carries on from the
	// state the job before it left.
	stop   StopReason
	chains bool
}

// runChain runs jobs in order on one vessel forked from a snapshot of
// watchApp at cycle snapAt, the way a campaign worker runs the experiments of
// a cluster. Each job must end as a new device armed with the same faults
// does, whatever the vessel ran before; after every stop that leaves the
// vessel on the fault-free run, the vessel must pass the live-state check and
// equal a new fork run fault-free to the cycle it stands at. It returns each
// job's stop reason and whether it carried on without a restore.
func runChain(t *testing.T, cfg *config.GPU, snapAt uint64, deep bool, jobs []chainJob) (stops []StopReason, chained []bool) {
	t.Helper()
	prefix, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefix.EnableRecording()
	prefix.SnapshotAt([]uint64{snapAt}, func(s *Snapshot) error {
		var vessel *GPU
		for _, job := range jobs {
			if vessel == nil {
				vessel = NewFork(s)
				vessel.SetDeepClone(deep)
			} else {
				vessel.Refork(s)
			}
			stopEarly.apply(vessel)
			vessel.CycleLimit = 20000
			if job.trace {
				vessel.EnableTrace()
			}
			for _, spec := range job.specs {
				if err := vessel.ArmFault(spec); err != nil {
					t.Fatal(err)
				}
			}
			CheckLiveStateEveryCycle(vessel, func(err error) { t.Errorf("%s: %v", job.name, err) })
			before := snapChained.Load()
			got := runWatchApp(t, vessel)
			stops, chained = append(stops, got.stop), append(chained, snapChained.Load() != before)
			if want := faultedApp(t, cfg, job.specs, stopEarly, job.trace); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: on the vessel %q cycle %d stop %d, a new device gives %q cycle %d stop %d",
					job.name, got.err, got.cycle, got.stop, want.err, want.cycle, want.stop)
			}
			if vessel.onGolden {
				if err := vessel.checkLiveState(); err != nil {
					t.Errorf("%s: stopped vessel: %v", job.name, err)
				}
				if diff := differing(stateOf(vessel), goldenAt(t, s, vessel.cycle)); diff != nil {
					t.Errorf("%s: the vessel stopped on the fault-free run at cycle %d but differs from the fork run fault-free to there in %v",
						job.name, vessel.cycle, diff)
				}
			}
			if job.host {
				if _, err := vessel.Malloc(64); err != nil {
					t.Fatal(err)
				}
			}
		}
		return ErrReplayStop
	})
	if _, err := watchApp(t, prefix); !errors.Is(err, ErrReplayStop) {
		t.Fatal(err)
	}
	return stops, chained
}

// chainSpecs finds, by trying seeds on new devices, one register-file fault
// for each of the wanted stop reasons at the given cycle of watchApp.
func chainSpecs(t *testing.T, cycle uint64, trace bool, want ...StopReason) map[StopReason]*FaultSpec {
	t.Helper()
	found := map[StopReason]*FaultSpec{}
	missing := func() bool {
		for _, r := range want {
			if found[r] == nil {
				return true
			}
		}
		return false
	}
	for seed := int64(0); seed < 600 && missing(); seed++ {
		spec := &FaultSpec{Structure: StructRegFile, Cycle: cycle, BitPositions: []int64{(seed * 37) % (15 * 32)}, Seed: seed}
		if r := faultedApp(t, testConfig(), []*FaultSpec{spec}, stopEarly, trace); found[r.stop] == nil {
			found[r.stop] = spec
		}
	}
	return found
}

// inertAt is a fault that changes nothing: watchApp's first launch never
// touches the texture cache.
func inertAt(cycle uint64) *FaultSpec {
	return &FaultSpec{Structure: StructL1T, Cycle: cycle, BitPositions: []int64{60}, Seed: 1}
}

// TestChainedVesselEqualsRestored walks one vessel through the stops that
// leave it on the fault-free run — inert, dead on arrival, overwritten — and
// the things that must make it restore instead: a seed that left with its
// lane, a fault armed for a cycle the vessel has passed, a stop in a later
// launch, a host write to the stopped device, a run that did not stop, the
// deep-clone protocol.
func TestChainedVesselEqualsRestored(t *testing.T) {
	gold := faultedApp(t, testConfig(), nil, toTheEnd, false)
	first := gold.cycle / 8 // inside watchApp's first launch
	at := first + 40
	untraced := chainSpecs(t, at, false, StopDead, StopRetired, NotStopped)
	traced := chainSpecs(t, at, true, StopOverwritten)
	dead, retired, runsOn := untraced[StopDead], untraced[StopRetired], untraced[NotStopped]
	overwritten := traced[StopOverwritten] // a traced run never stops dead on arrival
	deadLater := chainSpecs(t, at+80, false, StopDead)[StopDead]
	if dead == nil || retired == nil || runsOn == nil || overwritten == nil || deadLater == nil {
		t.Fatalf("no spec of some kind at cycle %d: dead %v and %v, retired %v, runs on %v, overwritten (traced) %v",
			at, dead, deadLater, retired, runsOn, overwritten)
	}
	one := func(s *FaultSpec) []*FaultSpec { return []*FaultSpec{s} }
	// Two faults of one experiment, the second in watchApp's second launch:
	// the run stops there, outside the snapshot's launch.
	var nextLaunch uint64
	{
		g := newTestGPU(t)
		if _, err := watchApp(t, g); err != nil {
			t.Fatal(err)
		}
		nextLaunch = g.Launches()[1].StartCycle + 5
	}

	check := func(t *testing.T, deep bool, jobs []chainJob) {
		stops, chained := runChain(t, testConfig(), first, deep, jobs)
		for i, job := range jobs {
			if stops[i] != job.stop || chained[i] != job.chains {
				t.Errorf("%s: stop reason %d, carried on without a restore = %v; the case is built for %d, %v",
					job.name, stops[i], chained[i], job.stop, job.chains)
			}
		}
	}
	t.Run("chains", func(t *testing.T) {
		check(t, false, []chainJob{
			{name: "inert, from a restore", specs: one(inertAt(at)), stop: StopInert},
			{name: "inert again, same cycle", specs: one(inertAt(at)), stop: StopInert, chains: true},
			{name: "dead on arrival, same cycle", specs: one(dead), stop: StopDead, chains: true},
			{name: "dead on arrival again", specs: one(dead), stop: StopDead, chains: true},
			{name: "overwritten, traced", specs: one(overwritten), trace: true, stop: StopOverwritten, chains: true},
			{name: "inert, after the overwrite", specs: one(inertAt(at + 60)), stop: StopInert, chains: true},
			{name: "dead and inert in one cycle", specs: []*FaultSpec{deadLater, inertAt(deadLater.Cycle)}, stop: StopDead, chains: true},
		})
	})
	t.Run("refusals", func(t *testing.T) {
		check(t, false, []chainJob{
			{name: "overwritten, traced", specs: one(overwritten), trace: true, stop: StopOverwritten},
			{name: "a fault for a cycle the vessel has passed", specs: one(inertAt(at)), stop: StopInert},
			{name: "retired", specs: one(retired), stop: StopRetired, chains: true},
			{name: "after a seed left with its lane", specs: one(inertAt(at + 60)), stop: StopInert},
			{name: "stops in the next launch", specs: []*FaultSpec{inertAt(at + 60), inertAt(nextLaunch)}, stop: StopInert, chains: true},
			{name: "after a stop outside the snapshot's launch", specs: one(inertAt(nextLaunch)), stop: StopInert},
			{name: "runs on", specs: one(runsOn), stop: NotStopped},
			{name: "after a run that did not stop", specs: one(inertAt(at)), stop: StopInert, host: true},
			{name: "after a host write to the stopped device", specs: one(inertAt(at)), stop: StopInert},
		})
	})
	t.Run("deep clone never chains", func(t *testing.T) {
		check(t, true, []chainJob{
			{name: "inert", specs: one(inertAt(at)), stop: StopInert},
			{name: "inert again", specs: one(inertAt(at)), stop: StopInert},
		})
	})
}

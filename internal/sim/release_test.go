package sim

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// This file holds a fork to the rule the campaign engine recycles snapshots
// by: once a fork has let go of its snapshot (OnRelease), the snapshot's
// storage may be recycled and captured into again while the fork still runs,
// still aliasing the resident state it restored.

// aliased reports whether the device has a resident warp whose lane state,
// and a CTA whose shared memory, are still the snapshot's.
func aliased(g *GPU) (warps, smem bool) {
	for _, c := range g.cores {
		for _, b := range c.ctas {
			smem = smem || b.sharedSmem
			for _, w := range b.warps {
				warps = warps || w.sharedSlab && !w.exited
			}
		}
	}
	return warps, smem
}

// TestCOWForkOutlivesRecycledSnapshot restores a fork from snapshot S and
// pauses it while some of its warps and some CTA's shared memory still alias
// S's. The prefix then recycles S and captures twice more into S's storage.
// The fork, armed with a register-file and a shared-memory fault past the
// pause, runs to its end and must equal, by stateOf and by output, a fork of
// S run before anyone recycled it. It lets go of S exactly once, at its
// restore.
func TestCOWForkOutlivesRecycledSnapshot(t *testing.T) {
	g := newTestGPU(t)
	if _, err := watchApp(t, g); err != nil {
		t.Fatal(err)
	}
	first := g.Launches()[0]
	at := first.StartCycle + (first.EndCycle-first.StartCycle)/4
	pause := at + 12
	faults := func() []*FaultSpec {
		return []*FaultSpec{
			{Structure: StructRegFile, Cycle: pause + 3, BitPositions: []int64{37}, Seed: 5},
			{Structure: StructShared, Cycle: pause + 6, BitPositions: []int64{101}, Seed: 9},
		}
	}
	runFork := func(f *GPU) {
		f.CycleLimit = 4 * g.Cycle()
		for _, spec := range faults() {
			if err := f.ArmFault(spec); err != nil {
				t.Fatal(err)
			}
		}
	}

	var (
		want, got deviceState
		wantOut   appRun
		out       []byte
		outErr    error
		storage   *GPU // S's template, recycled under the fork
		releases  int
		paused    = make(chan [2]bool)
		resume    = make(chan struct{})
		done      = make(chan struct{})
	)
	prefix := newTestGPU(t)
	prefix.EnableRecording()
	prefix.SnapshotAt([]uint64{at, at + 30, at + 60}, func(s *Snapshot) error {
		switch s.Cycle {
		case at:
			DrainPool()
			ref := NewFork(s)
			runFork(ref)
			wantOut, want = runWatchApp(t, ref), stateOf(ref)
			ref.Release()

			fork := NewFork(s)
			fork.OnRelease(func() { releases++ })
			runFork(fork)
			held := false
			fork.cycleCheck = func() {
				if !held && fork.cycle >= pause {
					held = true
					w, sm := aliased(fork)
					paused <- [2]bool{w, sm}
					<-resume
				}
			}
			go func() {
				defer close(done)
				out, outErr = watchApp(t, fork)
				got = stateOf(fork)
			}()
			select {
			case a := <-paused:
				if !a[0] || !a[1] {
					t.Errorf("at the pause the fork aliases S's lane states = %v and shared memory = %v: the case needs both", a[0], a[1])
				}
			case <-done:
				t.Errorf("the fork ended before cycle %d", pause)
			}
			storage = s.gpu
		case at + 30, at + 60:
			if s.gpu != storage {
				t.Errorf("the capture at cycle %d did not land in S's recycled storage", s.Cycle)
			}
			if s.Cycle == at+60 {
				close(resume)
				<-done
				return ErrReplayStop
			}
		}
		prefix.RecycleSnapshot(s)
		return nil
	})
	if _, err := watchApp(t, prefix); !errors.Is(err, ErrReplayStop) {
		t.Fatalf("prefix: %v", err)
	}
	if releases != 1 {
		t.Errorf("the fork let go of S %d times, want once", releases)
	}
	if !bytes.Equal(out, wantOut.out) || fmt.Sprint(outErr) != wantOut.err {
		t.Errorf("the fork that ran on over recycled storage ended with %x (%v), a fork of S nobody recycled with %x (%s)",
			out, outErr, wantOut.out, wantOut.err)
	}
	if diff := differing(got, want); diff != nil {
		t.Errorf("the fork that ran on over recycled storage differs from a fork of S nobody recycled in %v", diff)
	}
}

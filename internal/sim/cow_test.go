package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gpufi/internal/isa"
)

// vecaddCalls replays the exact host-call sequence of runVecadd on g —
// three Mallocs, two HtoDs, the launch, one DtoH — and returns the output
// bytes and the launch error. Forks replaying a recorded prefix must
// issue the identical sequence, so the prefix run and every fork funnel
// through this one helper.
func vecaddCalls(t *testing.T, g *GPU, n int) ([]byte, error) {
	t.Helper()
	p := mustAssemble(t, vecaddAsm)
	a := make([]uint32, n)
	b := make([]uint32, n)
	for i := 0; i < n; i++ {
		a[i] = isa.F32Bits(float32(i))
		b[i] = isa.F32Bits(float32(2 * i))
	}
	da, err := g.Malloc(uint32(4 * n))
	if err != nil {
		return nil, err
	}
	db, err := g.Malloc(uint32(4 * n))
	if err != nil {
		return nil, err
	}
	dc, err := g.Malloc(uint32(4 * n))
	if err != nil {
		return nil, err
	}
	if err := g.MemcpyHtoD(da, u32sToBytes(a)); err != nil {
		return nil, err
	}
	if err := g.MemcpyHtoD(db, u32sToBytes(b)); err != nil {
		return nil, err
	}
	if _, err := g.Launch(p, Dim1((n+63)/64), Dim1(64), da, db, dc, uint32(n)); err != nil {
		return nil, err
	}
	out := make([]byte, 4*n)
	if err := g.MemcpyDtoH(out, dc); err != nil {
		return nil, err
	}
	return out, nil
}

func randomSpec(rng *rand.Rand, after uint64) *FaultSpec {
	structures := []Structure{StructRegFile, StructL1D, StructL2, StructL1T}
	nb := 1 + rng.Intn(2)
	pos := make([]int64, nb)
	for i := range pos {
		pos[i] = int64(rng.Intn(4000))
	}
	return &FaultSpec{
		Structure:    structures[rng.Intn(len(structures))],
		Cycle:        after + 1 + uint64(rng.Intn(40)),
		BitPositions: pos,
		WarpWide:     rng.Intn(4) == 0,
		Seed:         rng.Int63(),
	}
}

// TestCOWForkDifferentialAndRecycleProperty is the sim-level gate on the
// copy-on-write fork engine, exercising the full campaign lifecycle the
// way internal/core drives it:
//
//   - a recording prefix run pauses at several snapshot cycles;
//   - at each snapshot, a COW vessel replays faults that a new device armed
//     with the same spec runs from cycle 0, and the two must end on the same
//     cycle with byte-identical outputs, errors and injection records; a
//     fault-free COW fork must reproduce the golden fault-free output;
//   - vessels are reforked across snapshots (the frozen-delta catch-up
//     path), randomly poisoned (storage scribbled) to hit the self-heal
//     full-copy path, or discarded outright;
//   - Snapshot.VerifyStorage must hold before every RecycleSnapshot, and
//     recycled templates must keep producing correct forks.
func TestCOWForkDifferentialAndRecycleProperty(t *testing.T) {
	const n = 256
	gold := newTestGPU(t)
	golden, err := vecaddCalls(t, gold, n)
	if err != nil {
		t.Fatal(err)
	}
	lr := gold.Launches()[0]
	if lr.Cycles < 20 {
		t.Fatalf("kernel too short to snapshot meaningfully: %d cycles", lr.Cycles)
	}
	snaps := []uint64{
		lr.StartCycle + lr.Cycles/5,
		lr.StartCycle + lr.Cycles/2,
		lr.StartCycle + 4*lr.Cycles/5,
	}

	prefix := newTestGPU(t)
	prefix.EnableRecording()
	rng := rand.New(rand.NewSource(7))
	var cowVessel *GPU
	recycled := 0
	prefix.SnapshotAt(snaps, func(s *Snapshot) error {
		if err := s.VerifyStorage(); err != nil {
			t.Fatalf("snapshot at cycle %d failed verification before use: %v", s.Cycle, err)
		}

		// Fault-free COW fork reproduces the golden output bit-for-bit.
		if cowVessel == nil {
			cowVessel = NewFork(s)
		} else {
			cowVessel.Refork(s)
		}
		out, err := vecaddCalls(t, cowVessel, n)
		if err != nil {
			t.Fatalf("fault-free COW fork at cycle %d: %v", s.Cycle, err)
		}
		if !bytes.Equal(out, golden) {
			t.Fatalf("fault-free COW fork diverged from golden at cycle %d", s.Cycle)
		}

		// Same faults on the vessel and on a new device run from cycle 0:
		// byte-identical outcomes.
		for k := 0; k < 4; k++ {
			spec := randomSpec(rng, s.Cycle)
			cowVessel.Refork(s)
			if err := cowVessel.ArmFault(spec); err != nil {
				t.Fatal(err)
			}
			cowOut, cowErr := vecaddCalls(t, cowVessel, n)

			ref := newTestGPU(t)
			if err := ref.ArmFault(spec); err != nil {
				t.Fatal(err)
			}
			refOut, refErr := vecaddCalls(t, ref, n)

			if fmt.Sprint(cowErr) != fmt.Sprint(refErr) || cowVessel.Cycle() != ref.Cycle() {
				t.Fatalf("cycle %d spec %d: COW error %v at cycle %d, from cycle 0 error %v at cycle %d",
					s.Cycle, k, cowErr, cowVessel.Cycle(), refErr, ref.Cycle())
			}
			if !bytes.Equal(cowOut, refOut) {
				t.Fatalf("cycle %d spec %d (%v x%d): COW and from-cycle-0 outputs diverged",
					s.Cycle, k, spec.Structure, len(spec.BitPositions))
			}
			ci, ri := cowVessel.Injection(), ref.Injection()
			if (ci == nil) != (ri == nil) || (ci != nil && *ci != *ri) {
				t.Fatalf("cycle %d spec %d: injection records diverged: %+v vs %+v",
					s.Cycle, k, ci, ri)
			}
		}

		// Poison or discard the COW vessel: the next restore must self-heal
		// (fresh clone + new baseline) without corrupting the template.
		switch rng.Intn(3) {
		case 0:
			cowVessel.mem = nil // poisoned: storage lost
		case 1:
			cowVessel = nil // discarded outright
		}

		if err := s.VerifyStorage(); err != nil {
			t.Fatalf("snapshot at cycle %d corrupted by its forks: %v", s.Cycle, err)
		}
		prefix.RecycleSnapshot(s)
		if s.gpu != nil {
			t.Fatalf("recycle did not take the template at cycle %d", s.Cycle)
		}
		prefix.RecycleSnapshot(s) // double recycle must be a harmless no-op
		if err := s.VerifyStorage(); err == nil {
			t.Fatalf("recycled snapshot still claims to hold storage")
		}
		recycled++
		return nil
	})

	prefixOut, err := vecaddCalls(t, prefix, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prefixOut, golden) {
		t.Fatalf("recording prefix run diverged from golden")
	}
	if recycled != len(snaps) {
		t.Fatalf("snapshot sink fired %d times, want %d", recycled, len(snaps))
	}
	st := COWStats()
	if st.Restores == 0 || st.WarpsShared == 0 {
		t.Fatalf("COW restore path never engaged: %+v", st)
	}
}

// TestCOWDirtyStateConvergence redoes a fork restore after heavy mutation
// and verifies the vessel's observable memory converges back to the
// snapshot exactly — the property RecycleSnapshot relies on: a vessel's
// writes never leak into the shared template.
func TestCOWDirtyStateConvergence(t *testing.T) {
	const n = 512
	gold := newTestGPU(t)
	golden, err := vecaddCalls(t, gold, n)
	if err != nil {
		t.Fatal(err)
	}
	lr := gold.Launches()[0]

	prefix := newTestGPU(t)
	prefix.EnableRecording()
	var vessel *GPU
	prefix.SnapshotAt([]uint64{lr.StartCycle + lr.Cycles/3}, func(s *Snapshot) error {
		vessel = NewFork(s)
		rng := rand.New(rand.NewSource(99))
		for iter := 0; iter < 8; iter++ {
			if iter > 0 {
				vessel.Refork(s)
			}
			spec := randomSpec(rng, s.Cycle)
			if err := vessel.ArmFault(spec); err != nil {
				t.Fatal(err)
			}
			vecaddCalls(t, vessel, n) // outcome irrelevant; mutates heavily
			// The template must still describe the capture instant.
			if err := s.VerifyStorage(); err != nil {
				t.Fatalf("iteration %d corrupted the snapshot: %v", iter, err)
			}
		}
		// After all that churn a clean refork still reproduces golden.
		vessel.Refork(s)
		out, err := vecaddCalls(t, vessel, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, golden) {
			t.Fatalf("post-churn fork diverged from golden")
		}
		return ErrReplayStop
	})
	if _, err := vecaddCalls(t, prefix, n); err != ErrReplayStop {
		t.Fatalf("prefix run: got %v, want ErrReplayStop", err)
	}
}

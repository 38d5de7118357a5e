package sim

import (
	"crypto/sha256"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"testing"

	"gpufi/internal/isa"
)

// This file holds the scheduler's and the injector's cached live-state
// bookkeeping — core.readyAt, core.liveWarps, core.liveThreads, the
// EXIT-guarded live-lane check and the count-then-walk injection pick — to
// what full scans and candidate lists compute. The scans and lists below
// are the implementations the production code replaced; they exist only
// here, as references.

func scanLiveWarps(c *core) int {
	n := 0
	for _, w := range c.warps {
		if !w.exited {
			n++
		}
	}
	return n
}

func scanLiveThreads(c *core) int {
	n := 0
	for _, w := range c.warps {
		if w.exited {
			continue
		}
		for lane := 0; lane < 32; lane++ {
			if w.lanes.valid>>lane&1 != 0 && w.st.exited>>lane&1 == 0 {
				n++
			}
		}
	}
	return n
}

// checkLiveState compares every cached quantity against its scan, for the
// state the next tick and fastForward are about to read.
func (g *GPU) checkLiveState() error {
	for _, c := range g.cores {
		if got, want := c.liveWarps, scanLiveWarps(c); got != want {
			return fmt.Errorf("cycle %d core %d: liveWarps counter %d, scan %d", g.cycle, c.id, got, want)
		}
		if got, want := c.liveThreads, scanLiveThreads(c); got != want {
			return fmt.Errorf("cycle %d core %d: liveThreads counter %d, live lanes in live warps %d",
				g.cycle, c.id, got, want)
		}
		if c.readyAt != 0 {
			next := c.nextReadyCycle()
			if next == 0 || c.readyAt > next {
				return fmt.Errorf("cycle %d core %d: readyAt %d is past the true next-ready cycle %d",
					g.cycle, c.id, c.readyAt, next)
			}
		}
		// step decides "this warp is finished" with the lane scan guarded
		// behind EXIT. w.exited only rises and the live set only shrinks,
		// so a step whose guarded check disagreed with the unguarded one
		// leaves a warp whose flag and lanes disagree from then on.
		resident := 0
		for _, w := range c.warps {
			if done := len(w.stack) == 0 || w.liveMask() == 0; done != w.exited {
				return fmt.Errorf("cycle %d core %d warp %d: exited=%v but stack depth %d, live mask %08x",
					g.cycle, c.id, w.slot, w.exited, len(w.stack), w.liveMask())
			}
			if err := checkLaneState(g, w); err != nil {
				return fmt.Errorf("cycle %d core %d warp %d: %v", g.cycle, c.id, w.slot, err)
			}
			resident += bits.OnesCount32(w.lanes.valid)
		}
		if resident != c.usedThreads {
			return fmt.Errorf("cycle %d core %d: valid lanes of resident warps %d, usedThreads %d",
				g.cycle, c.id, resident, c.usedThreads)
		}
	}
	return nil
}

// checkLaneState holds a warp's lane masks and register slab to each other:
// only threads that exist can exit, only live threads can sit on the SIMT
// stack (exitThreads clears an exiting lane from every level), the
// always-true predicate stays all ones, and the slab has one 32-lane row per
// allocated register.
func checkLaneState(g *GPU, w *warp) error {
	st := w.st
	if st.exited&^w.lanes.valid != 0 {
		return fmt.Errorf("exited mask %08x has lanes outside the valid mask %08x", st.exited, w.lanes.valid)
	}
	live := w.liveMask()
	for i, e := range w.stack {
		if e.mask&^live != 0 {
			return fmt.Errorf("stack level %d mask %08x has lanes outside the live mask %08x", i, e.mask, live)
		}
	}
	if st.preds[isa.PredPT] != ^uint32(0) {
		return fmt.Errorf("PT predicate mask is %08x", st.preds[isa.PredPT])
	}
	if want := g.curProg.RegsPerThread * isa.WarpSize; len(st.regs) != want {
		return fmt.Errorf("register slab holds %d words, want %d", len(st.regs), want)
	}
	return nil
}

// CheckLiveStateEveryCycle makes g verify checkLiveState at the end of
// every simulated cycle, reporting the first failure to fail. Exported to
// the package's external tests, which drive the benchmark applications.
func CheckLiveStateEveryCycle(g *GPU, fail func(error)) {
	failed := false
	g.cycleCheck = func() {
		if failed {
			return
		}
		if err := g.checkLiveState(); err != nil {
			failed = true
			fail(err)
		}
	}
}

// refLiveThreadRefs is the candidate list register-file and local-memory
// injections used to build: every live thread (by global thread id) with
// its warp and core.
func refLiveThreadRefs(g *GPU) (threads []int, warps []*warp, cores []int) {
	for _, c := range g.cores {
		for _, w := range c.warps {
			if w.exited {
				continue
			}
			for lane := 0; lane < 32; lane++ {
				if w.lanes.valid>>lane&1 != 0 && w.st.exited>>lane&1 == 0 {
					threads = append(threads, int(w.lanes.gtid[lane]))
					warps = append(warps, w)
					cores = append(cores, c.id)
				}
			}
		}
	}
	return
}

func refLiveWarpRefs(g *GPU) (warps []*warp, cores []int) {
	for _, c := range g.cores {
		for _, w := range c.warps {
			if !w.exited {
				warps = append(warps, w)
				cores = append(cores, c.id)
			}
		}
	}
	return
}

// refEligibleCores is the candidate list the cache injections used to
// build from the spec's core mask.
func refEligibleCores(g *GPU, spec *FaultSpec, has func(*core) bool) []int {
	candidates := spec.CoreMask
	if len(candidates) == 0 {
		for i := range g.cores {
			candidates = append(candidates, i)
		}
	}
	var eligible []int
	for _, id := range candidates {
		if id >= 0 && id < len(g.cores) && has(g.cores[id]) {
			eligible = append(eligible, id)
		}
	}
	return eligible
}

// refInjectionSite predicts, from candidate lists and a freshly allocated
// generator, the site fields applyFault must record for spec on g's
// current state. Detail is predicted where it does not depend on cache
// contents ("" otherwise). g is not modified.
func refInjectionSite(g *GPU, spec *FaultSpec) InjectionRecord {
	rec := InjectionRecord{Structure: spec.Structure, Cycle: g.cycle, Core: -1, Warp: -1, Thread: -1, CTA: -1}
	rng := rand.New(rand.NewSource(spec.Seed))
	nPos := len(spec.BitPositions)
	switch spec.Structure {
	case StructRegFile, StructLocal:
		name := "regfile"
		if spec.Structure == StructLocal {
			if g.localStep == 0 {
				rec.Detail = "kernel uses no local memory"
				return rec
			}
			name = "local"
		}
		if spec.WarpWide {
			warps, cores := refLiveWarpRefs(g)
			if len(warps) == 0 {
				rec.Detail = "no live warp"
				return rec
			}
			i := rng.Intn(len(warps))
			rec.Applied, rec.Core, rec.Warp = true, cores[i], warps[i].slot
			rec.Detail = fmt.Sprintf("warp-wide %s flip x%d", name, nPos)
			return rec
		}
		threads, warps, cores := refLiveThreadRefs(g)
		if len(threads) == 0 {
			rec.Detail = "no live thread"
			return rec
		}
		i := rng.Intn(len(threads))
		rec.Applied, rec.Core, rec.Warp, rec.Thread = true, cores[i], warps[i].slot, threads[i]
		rec.Detail = fmt.Sprintf("%s flip x%d", name, nPos)
	case StructShared:
		var ctas []*cta
		var cores []int
		for _, c := range g.cores {
			for _, b := range c.ctas {
				if len(b.smem) > 0 {
					ctas = append(ctas, b)
					cores = append(cores, c.id)
				}
			}
		}
		if len(ctas) == 0 {
			rec.Detail = "no active CTA with shared memory"
			return rec
		}
		n := spec.Blocks
		if n <= 0 {
			n = 1
		}
		if n > len(ctas) {
			n = len(ctas)
		}
		perm := rng.Perm(len(ctas))[:n]
		rec.Applied, rec.CTA, rec.Core = true, ctas[perm[0]].id, cores[perm[0]]
		rec.Detail = fmt.Sprintf("shared flip x%d in %d block(s)", nPos, n)
	case StructL2:
		rec.Applied = true
	default:
		var has func(*core) bool
		switch spec.Structure {
		case StructL1D:
			has = func(c *core) bool { return c.l1d != nil }
		case StructL1T:
			has = func(c *core) bool { return true }
		case StructL1C:
			has = func(c *core) bool { return c.l1c != nil }
		case StructL1I:
			has = func(c *core) bool { return c.l1i != nil }
		}
		eligible := refEligibleCores(g, spec, has)
		if len(eligible) == 0 {
			return rec
		}
		rec.Applied, rec.Core = true, eligible[rng.Intn(len(eligible))]
	}
	return rec
}

// pickAsm keeps a ragged live set resident for a long stretch: every
// fourth lane and the whole second warp of each CTA exit early, the rest
// spin on shared, local and global traffic.
const pickAsm = `
.kernel pick
.smem 256
.local 16
	S2R   R0, %tid.x
	S2R   R1, %gtid
	LDC   R2, c[0]
	SHL   R3, R1, 2
	IADD  R4, R2, R3
	LDG   R5, [R4]
	AND   R6, R0, 63
	SHL   R6, R6, 2
	STS   [R6], R5
	STL   [0], R5
	AND   R7, R0, 3
	ISETP.EQ P0, R7, 1
@P0	EXIT
	ISETP.GE P1, R0, 32
	ISETP.LT P2, R0, 64
	MOV   R8, 0
@P1	MOV   R8, 1
@!P2	MOV   R8, 0
	ISETP.EQ P3, R8, 1
@P3	EXIT
	MOV   R9, 0
spin:
	ISETP.GE P0, R9, 40
@P0	BRA   done
	LDS   R10, [R6]
	LDL   R11, [0]
	IADD  R5, R10, R11
	STL   [4], R5
	LDG   R12, [R4]
	IADD  R5, R5, R12
	IADD  R9, R9, 1
	BRA   spin
done:
	STG   [R4], R5
	EXIT
`

func pickCalls(t *testing.T, g *GPU) error {
	t.Helper()
	const nCTA, ctaSize = 10, 96
	p := mustAssemble(t, pickAsm)
	in := make([]uint32, nCTA*ctaSize)
	for i := range in {
		in[i] = uint32(i * 7)
	}
	d, err := g.Malloc(uint32(4 * len(in)))
	if err != nil {
		return err
	}
	if err := g.MemcpyHtoD(d, u32sToBytes(in)); err != nil {
		return err
	}
	_, err = g.Launch(p, Dim1(nCTA), Dim1(ctaSize), d)
	return err
}

// TestInjectionSiteMatchesListReference: for every structure, WarpWide on
// and off, the record applyFault leaves equals the one the candidate-list
// reference predicts from the same mid-launch state — on a deep-cloned
// vessel and on a copy-on-write vessel whose warps still share the
// snapshot's slabs.
func TestInjectionSiteMatchesListReference(t *testing.T) {
	gold := newTestGPU(t)
	if err := pickCalls(t, gold); err != nil {
		t.Fatal(err)
	}
	lr := gold.Launches()[0]
	snapCycles := []uint64{lr.StartCycle + lr.Cycles/3, lr.StartCycle + 2*lr.Cycles/3}

	structures := []Structure{StructRegFile, StructLocal, StructShared,
		StructL1D, StructL1T, StructL2, StructL1C, StructL1I}
	prefix := newTestGPU(t)
	prefix.EnableRecording()
	var vessel *GPU
	checked, ragged := 0, false
	prefix.SnapshotAt(snapCycles, func(s *Snapshot) error {
		for _, st := range structures {
			for _, warpWide := range []bool{false, true} {
				for seed := int64(1); seed <= 6; seed++ {
					spec := &FaultSpec{
						Structure:    st,
						Cycle:        s.Cycle + 1,
						BitPositions: []int64{3*32 + 5, 70},
						WarpWide:     warpWide,
						Blocks:       int(seed % 3),
						Seed:         seed * 7919,
					}
					if seed%2 == 0 {
						spec.CoreMask = []int{3, 1, 9, -1, 1}
					}
					var recs [2]InjectionRecord
					for arm := range recs {
						// Arm 0 restores into an empty fork (deep clone);
						// arm 1 reforks it (copy-on-write, shared slabs).
						if arm == 0 {
							vessel = NewFork(s)
						} else {
							vessel.Refork(s)
						}
						vessel.restore(s)
						if arm == 1 {
							shared := 0
							for _, c := range vessel.cores {
								for _, w := range c.warps {
									if w.sharedSlab {
										shared++
									}
								}
							}
							if shared == 0 {
								t.Fatalf("COW arm holds no shared-slab warp at cycle %d", s.Cycle)
							}
						}
						if scanLiveThreads(vessel.cores[0]) < vessel.cores[0].usedThreads {
							ragged = true
						}
						want := refInjectionSite(vessel, spec)
						vessel.cycle++ // the cycle the armed fault fires on
						want.Cycle = vessel.cycle
						vessel.applyFault(spec)
						got := *vessel.faultRecs[len(vessel.faultRecs)-1]
						recs[arm] = got
						if want.Detail == "" {
							got.Detail = ""
						}
						if got != want {
							t.Errorf("cycle %d %s warpWide=%v seed %d arm %d:\n got  %+v\n want %+v",
								s.Cycle, st, warpWide, spec.Seed, arm, got, want)
						}
						if err := vessel.checkLiveState(); err != nil {
							t.Errorf("after injection: %v", err)
						}
						checked++
					}
					if recs[0] != recs[1] {
						t.Errorf("cycle %d %s warpWide=%v seed %d: clone and COW vessels disagree:\n %+v\n %+v",
							s.Cycle, st, warpWide, spec.Seed, recs[0], recs[1])
					}
				}
			}
		}
		return nil
	})
	if err := pickCalls(t, prefix); err != nil {
		t.Fatal(err)
	}
	if checked == 0 || !ragged {
		t.Fatalf("checked %d injections, ragged live set seen: %v", checked, ragged)
	}
}

// TestInjectionRNGReseedMatchesFresh: a GPU re-seeding its one lazily
// seeded generator leaves the records a stock rand.NewSource allocated per
// injection would.
func TestInjectionRNGReseedMatchesFresh(t *testing.T) {
	gold := newTestGPU(t)
	if err := pickCalls(t, gold); err != nil {
		t.Fatal(err)
	}
	lr := gold.Launches()[0]
	prefix := newTestGPU(t)
	prefix.EnableRecording()
	n := 0
	prefix.SnapshotAt([]uint64{lr.StartCycle + lr.Cycles/2}, func(s *Snapshot) error {
		reused := NewFork(s)
		reused.restore(s)
		for i := 0; i < 200; i++ {
			spec := &FaultSpec{
				Structure:    []Structure{StructRegFile, StructLocal, StructShared, StructL1D}[i%4],
				Cycle:        s.Cycle + 1,
				BitPositions: []int64{int64(i)},
				WarpWide:     i%8 >= 4,
				Seed:         int64(i)*104729 + 1,
			}
			fresh := NewFork(s)
			fresh.restore(s)
			fresh.faultRNG = rand.New(rand.NewSource(spec.Seed)) // the stdlib's own source
			fresh.applyFault(spec)
			reused.applyFault(spec)
			a, b := *fresh.faultRecs[0], *reused.faultRecs[len(reused.faultRecs)-1]
			if spec.Structure == StructL1D {
				a.Detail, b.Detail = "", "" // reused's lines carry earlier flips
			}
			if a != b {
				t.Fatalf("injection %d: re-seeded generator diverged:\n fresh  %+v\n reused %+v", i, a, b)
			}
			n++
		}
		return nil
	})
	if err := pickCalls(t, prefix); err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("compared %d injection records, want 200", n)
	}
}

// TestInjectionPickAllocatesNothing: selecting the victim thread, warp or
// core must not touch the heap, whatever the device's size.
func TestInjectionPickAllocatesNothing(t *testing.T) {
	g := newTestGPU(t)
	p := mustAssemble(t, vecaddAsm)
	if _, err := g.launchSetup(p, Dim1(8), Dim1(64), []uint32{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	spec := &FaultSpec{CoreMask: []int{2, 0, 3}}
	hasL1D := func(c *core) bool { return c.l1d != nil }
	allocs := testing.AllocsPerRun(200, func() {
		if w, lane := g.liveThreadAt(rng.Intn(g.liveThreadCount())); w == nil || lane < 0 {
			t.Fatal("no thread picked")
		}
		if g.liveWarpAt(rng.Intn(g.liveWarpCount())) == nil {
			t.Fatal("no warp picked")
		}
		if g.pickCore(spec, rng, hasL1D) < 0 {
			t.Fatal("no core picked")
		}
	})
	if allocs != 0 {
		t.Fatalf("injection-site selection allocates %.0f objects per pick, want 0", allocs)
	}
}

// TestInjectionRecordsGolden pins the (spec seed, device state) → injection
// site mapping: 200 injections per structure into the ragged pick kernel
// must leave the records whose digest testdata/injection_digests.txt holds.
// Like the spec digests in internal/core, a mismatch means logged campaigns
// no longer re-run to the same faults.
func TestInjectionRecordsGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/injection_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			want[name] = sum
		}
	}
	gold := newTestGPU(t)
	if err := pickCalls(t, gold); err != nil {
		t.Fatal(err)
	}
	lr := gold.Launches()[0]
	prefix := newTestGPU(t)
	prefix.EnableRecording()
	prefix.SnapshotAt([]uint64{lr.StartCycle + lr.Cycles/2}, func(s *Snapshot) error {
		vessel := NewFork(s)
		for _, st := range Structures() {
			vessel.Refork(s)
			vessel.restore(s)
			vessel.faultRecs = nil
			h := sha256.New()
			for i := 0; i < 200; i++ {
				spec := &FaultSpec{
					Structure:    st,
					Cycle:        s.Cycle + 1,
					BitPositions: []int64{int64(i % 96)},
					WarpWide:     i%8 >= 4,
					Blocks:       i % 3,
					Seed:         int64(i-100) * 1_000_000_007 * int64(i+1),
				}
				if i%5 == 0 {
					spec.CoreMask = []int{3, 1, 9, 1}
				}
				vessel.applyFault(spec)
				fmt.Fprintf(h, "%+v\n", *vessel.faultRecs[i])
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[st.String()] {
				t.Errorf("%s %s\n\trecorded: %q", st, got, want[st.String()])
			}
		}
		return nil
	})
	if err := pickCalls(t, prefix); err != nil {
		t.Fatal(err)
	}
}

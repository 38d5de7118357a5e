package sim

import (
	"errors"
	"testing"

	"gpufi/internal/isa"
)

// TestLiveInTable reads the liveness table of hand-written kernels at the
// places where a wrong rule would show: each case names a register and the
// pcs it must be live and dead at.
func TestLiveInTable(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		reg        uint8
		live, dead []int
	}{
		{
			name: "an unguarded write kills, the read before it does not",
			body: "MOV R1, 1\nIADD R2, R1, 1\nMOV R1, 2\nSTG [R2], R1\nEXIT",
			reg:  1, live: []int{1, 3}, dead: []int{0, 2, 4},
		},
		{
			name: "a guarded write does not kill",
			body: "ISETP.LT P0, R0, 4\n@P0 MOV R1, 2\nSTG [R2], R1\nEXIT",
			reg:  1, live: []int{0, 1, 2}, dead: []int{3},
		},
		{
			name: "a guarded EXIT falls through",
			body: "ISETP.LT P0, R0, 4\n@P0 EXIT\nSTG [R2], R1\nEXIT",
			reg:  1, live: []int{0, 1, 2}, dead: []int{3},
		},
		{
			name: "nothing is live past an unguarded EXIT",
			body: "NOP\nEXIT\nSTG [R2], R1\nEXIT",
			reg:  1, live: []int{2}, dead: []int{0, 1, 3},
		},
		{
			name: "a loop back-edge keeps a register live",
			// R1 is read at the top of the loop only: after that read it is
			// live again through the branch back.
			body: "MOV R3, 0\ntop:\nIADD R3, R3, R1\nISETP.LT P0, R3, 100\n@P0 BRA top\nSTG [R2], R3\nEXIT",
			reg:  1, live: []int{0, 1, 2, 3}, dead: []int{4, 5},
		},
		{
			name: "an unguarded branch has one successor",
			body: "BRA over\nSTG [R2], R1\nover:\nEXIT",
			reg:  1, live: []int{1}, dead: []int{0, 2},
		},
		{
			name: "a guarded branch has two",
			body: "ISETP.LT P0, R0, 4\n@P0 BRA over\nSTG [R2], R1\nover:\nEXIT",
			reg:  1, live: []int{0, 1, 2}, dead: []int{3},
		},
		{
			name: "a load reads its address, a store its address and data, an immediate hides SrcB",
			body: "LDG R4, [R1]\nEXIT",
			reg:  1, live: []int{0}, dead: []int{1},
		},
		{
			name: "store data",
			body: "STS [R2], R1\nEXIT",
			reg:  1, live: []int{0}, dead: []int{1},
		},
		{
			name: "S2R and LDC read no register",
			body: "S2R R1, %tid.x\nLDC R1, c[0]\nEXIT",
			reg:  1, dead: []int{0, 1, 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustAssemble(t, ".kernel k\n"+tc.body+"\n")
			live := newLiveIn(p)
			if len(live) != len(p.Instrs) {
				t.Fatalf("table has %d entries for %d instructions", len(live), len(p.Instrs))
			}
			for _, pc := range tc.live {
				if live[pc]>>tc.reg&1 == 0 {
					t.Errorf("R%d is dead entering pc %d (%s), want live", tc.reg, pc, p.Instrs[pc].String())
				}
			}
			for _, pc := range tc.dead {
				if live[pc]>>tc.reg&1 != 0 {
					t.Errorf("R%d is live entering pc %d (%s), want dead", tc.reg, pc, p.Instrs[pc].String())
				}
			}
		})
	}
}

// TestLiveInIgnoresFieldsThatAreNotSites: a source field naming RZ or a
// register no thread can allocate adds nothing to the table, and neither is
// ever judged dead — no flip can land there.
func TestLiveInIgnoresFieldsThatAreNotSites(t *testing.T) {
	p := &isa.Program{Name: "k", RegsPerThread: 4, Instrs: []isa.Instr{
		{Op: isa.OpIADD, Dst: 1, SrcA: isa.RegRZ, SrcB: 200, SrcC: 64, Guard: isa.PredPT, Reconv: -1},
		{Op: isa.OpEXIT, Dst: isa.RegRZ, Guard: isa.PredPT, Reconv: -1},
	}}
	live := newLiveIn(p)
	if live[0] != 0 || live[1] != 0 {
		t.Fatalf("live-in sets %x, want none", live)
	}
	w := &warp{stack: []stackEntry{{pc: 0, rpc: -1, mask: 1}}}
	for _, reg := range []uint8{isa.RegRZ, 200, isa.NumRegs} {
		if live.deadFor(w, 1, reg) {
			t.Errorf("R%d judged dead: it is not a register a flip can land in", reg)
		}
	}
	if !live.deadFor(w, 1, 2) {
		t.Error("R2 is read by nothing and not judged dead")
	}
	// A lane on no stack level, and one whose level stands outside the
	// program, are not judged either.
	if live.deadFor(w, 2, 2) {
		t.Error("a lane on no stack level judged dead")
	}
	w.stack[0].pc = 7
	if live.deadFor(w, 1, 2) {
		t.Error("a lane standing outside the program judged dead")
	}
}

// divergedKernel splits the warp at a branch: lanes below 16 go to a side
// that reads R10, the others to one that overwrites it unread. While the low
// side runs, the high lanes wait on the level below it, standing at `high`.
const divergedKernel = `
	MOV R10, 7
	ISETP.LT P0, R0, 16
@P0	BRA low
	NOP
	MOV R10, 1
	BRA join
low:
	NOP
	NOP
	IADD R9, R9, R10
join:
	IADD R9, R9, R10`

const (
	divergedHighPC = bodyPC + 3 // the NOP the high lanes wait at
	divergedLowPC  = bodyPC + 7 // the second NOP of the low side
)

// TestDeadOnArrivalJudgesEachLaneWhereItStands injects into R10 while the
// warp is split. A lane's verdict comes from the topmost stack level holding
// it, not from the top of the stack: the same register at the same instant
// is dead in a high lane and live in a low one, and a warp-wide flip is dead
// only if it is dead in every lane.
func TestDeadOnArrivalJudgesEachLaneWhereItStands(t *testing.T) {
	src := lineKernel(divergedKernel)
	gold := runLine(t, src, nil, toTheEnd, false)
	if gold.err != nil {
		t.Fatal(gold.err)
	}
	at := gold.issue[divergedLowPC]
	if high := gold.issue[divergedHighPC]; high <= at {
		t.Fatalf("the high side issued in cycle %d, the low side in %d: the kernel is not split where the test injects", high, at)
	}
	var low, high bool
	for seed := int64(0); seed < 64 && !(low && high); seed++ {
		spec := &FaultSpec{Structure: StructRegFile, Cycle: at, BitPositions: regBits(10, 3), Seed: seed}
		got := runLine(t, src, spec, stopEarly, false)
		switch lane := got.rec.Thread; {
		case lane < 16:
			low = true
			if got.stop != NotStopped {
				t.Errorf("lane %d reads R10 two instructions on, yet the run stopped (reason %d)", lane, got.stop)
			}
		default:
			high = true
			if got.stop != StopDead || got.cycle != at-1 {
				t.Errorf("lane %d overwrites R10 unread: stop reason %d with the clock at %d, want dead on arrival at %d",
					lane, got.stop, got.cycle, at-1)
			}
		}
		if toEnd := runLine(t, src, spec, toTheEnd, false); (got.stop != NotStopped) !=
			(toEnd.err == nil && string(toEnd.out) == string(gold.out) && toEnd.cycle == gold.cycle) {
			t.Errorf("lane %d: stopped = %v, but the run to the end says otherwise", got.rec.Thread, got.stop != NotStopped)
		}
	}
	if !low || !high {
		t.Fatalf("64 seeds hit no lane on one side (low %v, high %v)", low, high)
	}

	wide := &FaultSpec{Structure: StructRegFile, Cycle: at, BitPositions: regBits(10, 3), WarpWide: true, Seed: 1}
	if got := runLine(t, src, wide, stopEarly, false); got.stop != NotStopped {
		t.Errorf("warp-wide flip of R10 with the low lanes about to read it stopped (reason %d)", got.stop)
	}
	// Once the low side has joined, only the high lanes are still to run
	// their side: R10 is dead in all of them, and not in the low lanes, who
	// wait at join to read it.
	wide.Cycle = gold.issue[divergedHighPC]
	if got := runLine(t, src, wide, stopEarly, false); got.stop != NotStopped {
		t.Errorf("warp-wide flip of R10 with the low lanes waiting to read it at the join stopped (reason %d)", got.stop)
	}
	// R8 is allocated and read by nobody: dead in every lane wherever it
	// stands.
	wide.BitPositions = regBits(8, 3)
	if got := runLine(t, src, wide, stopEarly, false); got.stop != StopDead || !errors.Is(got.err, ErrGoldenRun) {
		t.Errorf("warp-wide flip of a register nothing reads: stop reason %d, %v", got.stop, got.err)
	}
}

// TestDeadOnArrivalIsDecidedAtTheCheck: the verdict is reached after every
// fault of the cycle has fired, never at the flip. A dead register flip with
// a second fault still armed, or with an instruction-cache flip landing in
// the same cycle, does not stop the run there.
func TestDeadOnArrivalIsDecidedAtTheCheck(t *testing.T) {
	src := lineKernel("NOP\nMOV R10, 5\nNOP\nIADD R9, R9, R10")
	gold := runLine(t, src, nil, toTheEnd, false)
	at := gold.issue[bodyPC]
	run := func(second *FaultSpec) *GPU {
		g := newTestGPU(t)
		stopEarly.apply(g)
		for _, spec := range []*FaultSpec{{Structure: StructRegFile, Cycle: at, BitPositions: regBits(10, 3), Seed: 11}, second} {
			if err := g.ArmFault(spec); err != nil {
				t.Fatal(err)
			}
		}
		din, _ := g.Malloc(4 * 64)
		dout, _ := g.Malloc(4 * 32)
		g.Launch(mustAssemble(t, src), Dim1(1), Dim1(32), din, dout)
		return g
	}
	if g := run(&FaultSpec{Structure: StructL1T, Cycle: at + 1, BitPositions: []int64{60}, Seed: 1}); g.Stopped() == StopDead {
		t.Error("stopped dead on arrival with a fault still armed")
	} else if g.Stopped() != StopOverwritten {
		t.Errorf("stop reason %d, want the watch's own verdict once the second fault has fired", g.Stopped())
	}
	// Every line of the instruction cache in turn: one of them holds the
	// kernel, and a flip there arms a hook the watch cannot follow.
	l1i := testConfig().L1I
	landed := 0
	for line := 0; line < l1i.Lines(); line++ {
		g := run(&FaultSpec{Structure: StructL1I, Cycle: at, CoreMask: []int{0}, Seed: 1,
			BitPositions: []int64{int64(line)*int64(l1i.LineBits()) + 40}})
		if g.cores[0].l1i.Stats().HookArms+g.cores[0].l1i.Stats().TagFlips == 0 {
			continue
		}
		landed++
		if g.Stopped() != NotStopped {
			t.Errorf("line %d: a dead register flip and a landed L1I flip in one cycle stopped the run (reason %d)", line, g.Stopped())
		}
	}
	if landed == 0 {
		t.Fatal("no L1I flip landed on a valid line: the test shows nothing")
	}
}

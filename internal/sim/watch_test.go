package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gpufi/internal/config"
)

// This file holds the early end of a faulty run (watch.go) to the run it
// replaces. The reference is the same device with StopWhenGolden off: it
// simulates to the last cycle, and a run that stopped is right only if that
// one ended as the golden run — same output, same cycle count, same trace.
// The dead-on-arrival rule (liveness.go) has a second reference: the device
// with that rule off (watchOnly), which must reach every verdict the rule
// reaches, later, by following execution.

// stopMode is how a test device ends a faulty run.
type stopMode int

const (
	toTheEnd  stopMode = iota // StopWhenGolden off
	watchOnly                 // the rules that follow execution, not dead on arrival
	stopEarly                 // every rule: what the campaign engine runs
)

func (m stopMode) apply(g *GPU) {
	g.StopWhenGolden(m != toTheEnd)
	g.watchOnly = m == watchOnly
}

// lineKernel is a one-warp kernel skeleton: 32 threads, out[tid] written at
// the end from R9. The body runs between the prologue and the final store
// and may use R6 (in[tid]) and R10..; R4 = &in[tid], R5 = &out[tid], R3 =
// tid*4, R0 = tid.
func lineKernel(body string) string {
	return `
.kernel line
.smem 256
.local 16
	S2R  R0, %tid.x
	LDC  R1, c[0]
	LDC  R2, c[4]
	SHL  R3, R0, 2
	IADD R4, R1, R3
	IADD R5, R2, R3
	LDG  R6, [R4]
	MOV  R9, R6
` + body + `
	STG  [R5], R9
	EXIT
`
}

// lineRun is one run of a lineKernel and what a test may ask of it.
type lineRun struct {
	out    []byte
	err    error
	cycle  uint64 // where the device's clock stood when the run ended
	stop   StopReason
	rec    *InjectionRecord
	events []TraceEvent
	sum    *TraceSummary
	issue  map[int]uint64 // pc -> cycle of its first issue (golden runs only)
}

// runLine runs the kernel on a new device: in[] has 64 words (so an address
// off by a few words stays inside it), 32 threads. With spec nil it is the
// golden run and records when each pc first issued.
func runLine(t *testing.T, src string, spec *FaultSpec, mode stopMode, trace bool) lineRun {
	t.Helper()
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	mode.apply(g)
	if trace {
		g.EnableTrace()
	}
	var issued bytes.Buffer
	if spec == nil {
		g.TraceWriter = &issued
	} else if err := g.ArmFault(spec); err != nil {
		t.Fatal(err)
	}
	CheckLiveStateEveryCycle(g, func(err error) { t.Error(err) })
	in := make([]uint32, 64)
	for i := range in {
		in[i] = uint32(3*i + 100)
	}
	din, _ := g.Malloc(4 * 64)
	dout, _ := g.Malloc(4 * 32)
	g.MemcpyHtoD(din, u32sToBytes(in))
	r := lineRun{out: make([]byte, 4*32)}
	_, r.err = g.Launch(p, Dim1(1), Dim1(32), din, dout)
	g.MemcpyDtoH(r.out, dout)
	r.cycle, r.stop, r.rec = g.Cycle(), g.Stopped(), g.Injection()
	r.events, r.sum = g.TraceEvents(), g.TraceSummary()
	if spec == nil {
		r.issue = map[int]uint64{}
		for _, line := range strings.Split(issued.String(), "\n") {
			var cyc uint64
			var core, warp, pc int
			if n, _ := fmt.Sscanf(line, "%d core%d w%d pc%d", &cyc, &core, &warp, &pc); n == 4 {
				if _, seen := r.issue[pc]; !seen {
					r.issue[pc] = cyc
				}
			}
		}
	}
	return r
}

// regBits returns the bit positions of the given bits of register reg.
func regBits(reg int, bits ...int) []int64 {
	var out []int64
	for _, b := range bits {
		out = append(out, int64(reg*32+b))
	}
	return out
}

// The body's first instruction is pc 8 (the prologue has eight).
const bodyPC = 8

// TestWatchVerdicts drives one fault at a time through one-warp kernels
// built so that exactly one reading of the rules is right. A case that must
// not stop also shows why: the run it would have cut short does not end as
// the golden run. want is the verdict of the rules that follow execution;
// with dead on arrival on, a case marked dead stops in the injection cycle
// instead and every other case ends exactly as without it.
func TestWatchVerdicts(t *testing.T) {
	cases := []struct {
		name string
		body string
		// The fault fires entering the cycle pc `at` first issues in, so it
		// lands after everything before that pc and before the pc itself.
		at       int
		bits     []int64
		st       Structure
		warpWide bool
		want     StopReason
		stopAt   int  // pc whose issue cycle the run must stop in (stops only)
		golden   bool // a run that does not stop still ends as the golden run
		dead     bool // dead on arrival
	}{
		{
			name: "overwritten unread",
			body: "NOP\nMOV R10, 5\nNOP\nIADD R9, R9, R10",
			at:   bodyPC, bits: regBits(10, 3), want: StopOverwritten, stopAt: bodyPC + 1, dead: true,
		},
		{
			name: "read before the overwrite",
			body: "NOP\nIADD R9, R9, R10\nMOV R10, 5",
			at:   bodyPC, bits: regBits(10, 3), want: NotStopped,
		},
		{
			name: "unread when the lane exits",
			body: "NOP\nNOP",
			at:   bodyPC, bits: regBits(8, 7), want: StopRetired, stopAt: bodyPC + 3, dead: true,
		},
		{
			name: "bit beyond the allocation flips nothing",
			body: "NOP\nNOP",
			at:   bodyPC, bits: []int64{64*32 + 1}, want: StopInert, stopAt: bodyPC,
		},
		{
			name: "texture cache holds no valid line",
			body: "NOP\nNOP",
			at:   bodyPC, bits: []int64{60, 9000}, st: StructL1T, want: StopInert, stopAt: bodyPC,
		},
		{
			name: "L1D tag of a valid line",
			body: "NOP\nNOP",
			at:   bodyPC, bits: []int64{3}, st: StructL1D, want: NotStopped, golden: true,
		},
		{
			name: "read only as an LDG address",
			body: "IADD R10, R4, 0\nNOP\nLDG R9, [R10]\nMOV R10, 0",
			at:   bodyPC + 2, bits: regBits(10, 2), want: NotStopped,
		},
		{
			name: "read only as an STS address",
			body: "MOV R10, R3\nSTS [R3], RZ\nNOP\nSTS [R10], R6\nMOV R10, 0\nLDS R9, [R3]",
			at:   bodyPC + 3, bits: regBits(10, 2), want: NotStopped,
		},
		{
			name: "read only as store data",
			body: "MOV R10, R6\nNOP\nSTG [R5], R10\nMOV R10, 0\nLDG R9, [R5]",
			at:   bodyPC + 2, bits: regBits(10, 4), want: NotStopped,
		},
		{
			name: "read only as SrcC of an IMAD",
			body: "MOV R10, 1\nNOP\nIMAD R9, R0, R0, R10\nMOV R10, 0",
			at:   bodyPC + 2, bits: regBits(10, 6), want: NotStopped,
		},
		{
			name: "a predicated-off write kills nothing",
			body: "MOV R10, 1\nISETP.LT P0, R0, 0\nNOP\n@P0 MOV R10, 5\nIADD R9, R9, R10",
			at:   bodyPC + 3, bits: regBits(10, 6), want: NotStopped,
		},
		{
			name: "warp-wide: some lanes overwritten, the others read",
			body: "MOV R10, 1\nISETP.LT P0, R0, 16\nNOP\n@P0 MOV R10, 1\nIADD R9, R9, R10",
			at:   bodyPC + 3, bits: regBits(10, 6), warpWide: true, want: NotStopped,
		},
		{
			name: "warp-wide: every lane overwritten, in two halves",
			body: "MOV R10, 1\nISETP.LT P0, R0, 16\nNOP\n@P0 MOV R10, 1\n@!P0 MOV R10, 1\nIADD R9, R9, R10",
			// Each guarded write may be predicated off as far as the graph
			// knows: the register is live until the IADD.
			at: bodyPC + 3, bits: regBits(10, 6), warpWide: true, want: StopOverwritten, stopAt: bodyPC + 4,
		},
		{
			name: "three bits in two registers: both must die",
			body: "MOV R10, 1\nMOV R11, 2\nNOP\nMOV R10, 1\nNOP\nMOV R11, 2\nIADD R9, R10, R11",
			at:   bodyPC + 3, bits: append(regBits(10, 1, 5), regBits(11, 3)...), want: StopOverwritten, stopAt: bodyPC + 5, dead: true,
		},
		{
			name: "three bits in two registers: one dies, one is read",
			body: "MOV R10, 1\nMOV R11, 2\nNOP\nMOV R10, 1\nIADD R9, R9, R11\nMOV R11, 2",
			at:   bodyPC + 3, bits: append(regBits(10, 1, 5), regBits(11, 3)...), want: NotStopped,
		},
		{
			name: "shared word overwritten unread",
			body: "STS [R3], R6\nNOP\nSTS [R3], R6\nLDS R9, [R3]",
			at:   bodyPC + 1, bits: []int64{8*4*5 + 2}, st: StructShared, want: StopOverwritten, stopAt: bodyPC + 2,
		},
		{
			name: "shared word read",
			body: "STS [R3], R6\nNOP\nLDS R9, [R3]\nSTS [R3], R6",
			at:   bodyPC + 1, bits: []int64{8*4*5 + 2}, st: StructShared, want: NotStopped,
		},
		{
			name: "shared word nobody touches dies with its CTA",
			body: "STS [R3], R6\nNOP\nLDS R9, [R3]",
			at:   bodyPC + 1, bits: []int64{8*4*40 + 2}, st: StructShared, want: StopRetired, stopAt: bodyPC + 4,
		},
		{
			name: "local memory is not watched",
			body: "MOV R10, 4\nNOP\nLDL R9, [R10]", // the first touch of the word: it comes from DRAM
			at:   bodyPC + 1, bits: []int64{8*4 + 5}, st: StructLocal, want: NotStopped,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := lineKernel(tc.body)
			gold := runLine(t, src, nil, toTheEnd, false)
			if gold.err != nil {
				t.Fatal(gold.err)
			}
			spec := &FaultSpec{Structure: tc.st, Cycle: gold.issue[tc.at], BitPositions: tc.bits,
				WarpWide: tc.warpWide, Seed: 11}
			toEnd := runLine(t, src, spec, toTheEnd, false)
			got := runLine(t, src, spec, watchOnly, false)
			if got.stop != tc.want {
				t.Fatalf("stopped = %d, want %d (launch error %v, cycle %d)", got.stop, tc.want, got.err, got.cycle)
			}
			if !reflect.DeepEqual(got.rec, toEnd.rec) {
				t.Errorf("injection record %+v, run to the end has %+v", got.rec, toEnd.rec)
			}
			all := runLine(t, src, spec, stopEarly, false)
			if !reflect.DeepEqual(all.rec, toEnd.rec) {
				t.Errorf("injection record with every rule on %+v, run to the end has %+v", all.rec, toEnd.rec)
			}
			if tc.dead {
				// Stopped on arrival: the injection cycle never executed.
				if all.stop != StopDead || !errors.Is(all.err, ErrGoldenRun) || all.cycle != spec.Cycle-1 {
					t.Errorf("with every rule on: stop %d, error %v, clock %d; want dead on arrival with the clock at %d",
						all.stop, all.err, all.cycle, spec.Cycle-1)
				}
			} else if all.stop != got.stop || all.err != got.err || all.cycle != got.cycle || !bytes.Equal(all.out, got.out) {
				t.Errorf("not dead on arrival, yet every rule on ends stop %d, %v, cycle %d; the watch alone %d, %v, cycle %d",
					all.stop, all.err, all.cycle, got.stop, got.err, got.cycle)
			}
			endsGolden := toEnd.err == nil && bytes.Equal(toEnd.out, gold.out) && toEnd.cycle == gold.cycle
			if tc.want == NotStopped {
				if got.err != toEnd.err || got.cycle != toEnd.cycle || !bytes.Equal(got.out, toEnd.out) {
					t.Errorf("a run that did not stop differs from the run to the end: %v cycle %d, want %v cycle %d",
						got.err, got.cycle, toEnd.err, toEnd.cycle)
				}
				if endsGolden != tc.golden {
					t.Errorf("the run to the end ends golden = %v, the case is built for %v", endsGolden, tc.golden)
				}
				return
			}
			if !errors.Is(got.err, ErrGoldenRun) {
				t.Errorf("launch error %v, want ErrGoldenRun", got.err)
			}
			if !endsGolden {
				t.Errorf("stopped, but the run to the end is not the golden run: err %v, cycle %d (golden %d)",
					toEnd.err, toEnd.cycle, gold.cycle)
			}
			want := gold.issue[tc.stopAt]
			if tc.want == StopInert {
				want-- // stopped on arrival: the clock stays on the last cycle that executed
			}
			if got.cycle != want {
				t.Errorf("clock at %d after the stop, want %d (pc %d issues in cycle %d)", got.cycle, want, tc.stopAt, gold.issue[tc.stopAt])
			}
		})
	}
}

// TestWatchTracedStopsAreSilent holds the tracer to the same bar: where a
// traced run stops, the trace it has is the whole trace of the run to the
// end. A shared word that dies with its CTA is the exception the tracer's
// CTA-id keying forces: the traced run goes on. A traced run never stops dead
// on arrival — the trace needs the cycle of the write that clears the taint —
// so the register cases keep the verdicts of the rules that follow execution.
func TestWatchTracedStopsAreSilent(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		bits       []int64
		st         Structure
		want       StopReason
	}{
		{"register overwritten", "NOP\nMOV R10, 5\nIADD R9, R9, R10", regBits(10, 3), StructRegFile, StopOverwritten},
		{"register exits unread", "NOP\nNOP", regBits(8, 3), StructRegFile, StopRetired},
		{"shared overwritten", "STS [R3], R6\nNOP\nSTS [R3], R6\nLDS R9, [R3]", []int64{8*4*5 + 2}, StructShared, StopOverwritten},
		{"shared dies with its CTA", "STS [R3], R6\nNOP\nLDS R9, [R3]", []int64{8*4*40 + 2}, StructShared, NotStopped},
		{"inert", "NOP\nNOP", []int64{60}, StructL1T, StopInert},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := lineKernel(tc.body)
			gold := runLine(t, src, nil, toTheEnd, false)
			at := bodyPC
			if tc.st == StructShared {
				at = bodyPC + 1
			}
			spec := &FaultSpec{Structure: tc.st, Cycle: gold.issue[at], BitPositions: tc.bits, Seed: 11}
			toEnd := runLine(t, src, spec, toTheEnd, true)
			got := runLine(t, src, spec, stopEarly, true)
			if got.stop != tc.want {
				t.Fatalf("stopped = %d, want %d", got.stop, tc.want)
			}
			if !reflect.DeepEqual(got.events, toEnd.events) {
				t.Errorf("trace events differ:\n stopped: %+v\n to end:  %+v", got.events, toEnd.events)
			}
			if !reflect.DeepEqual(got.sum, toEnd.sum) {
				t.Errorf("trace summary %+v, run to the end has %+v", got.sum, toEnd.sum)
			}
		})
	}
}

// TestStoppedDeviceRefusesLaunches: once a device has stopped, every launch
// returns at once, so an application that swallows the error still cannot
// run on; Restore and Refork forget the verdict.
func TestStoppedDeviceRefusesLaunches(t *testing.T) {
	src := lineKernel("NOP\nMOV R10, 5\nIADD R9, R9, R10")
	gold := runLine(t, src, nil, toTheEnd, false)
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	g.StopWhenGolden(true)
	din, _ := g.Malloc(4 * 64)
	dout, _ := g.Malloc(4 * 32)
	before := g.Snapshot()
	if err := g.ArmFault(&FaultSpec{Structure: StructRegFile, Cycle: gold.issue[bodyPC], BitPositions: regBits(10, 3), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Launch(p, Dim1(1), Dim1(32), din, dout); !errors.Is(err, ErrGoldenRun) {
		t.Fatalf("first launch: %v, want ErrGoldenRun", err)
	}
	stoppedAt := g.Cycle()
	if _, err := g.Launch(p, Dim1(1), Dim1(32), din, dout); !errors.Is(err, ErrGoldenRun) || g.Cycle() != stoppedAt {
		t.Fatalf("launch on a stopped device: %v at cycle %d, want ErrGoldenRun at %d", err, g.Cycle(), stoppedAt)
	}
	g.Restore(before)
	if g.Stopped() != NotStopped {
		t.Fatal("Restore kept the verdict")
	}
	if _, err := g.Launch(p, Dim1(1), Dim1(32), din, dout); err != nil {
		t.Fatalf("launch after Restore: %v", err)
	}
}

// TestSnapshotOfFaultyDeviceNeverStops: the watch's cells do not travel with
// a snapshot, so a device restored from a state a fault had already fired in
// must not take a later inert fault for proof of a golden run.
func TestSnapshotOfFaultyDeviceNeverStops(t *testing.T) {
	src := lineKernel("NOP\nIADD R9, R9, R10\nNOP\nNOP")
	gold := runLine(t, src, nil, toTheEnd, false)
	p := mustAssemble(t, src)
	g := newTestGPU(t)
	g.StopWhenGolden(true)
	din, _ := g.Malloc(4 * 64)
	dout, _ := g.Malloc(4 * 32)
	if err := g.ArmFault(&FaultSpec{Structure: StructRegFile, Cycle: gold.issue[bodyPC], BitPositions: regBits(10, 3), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var snap *Snapshot
	g.SnapshotAt([]uint64{gold.issue[bodyPC+2]}, func(s *Snapshot) error { snap = s; return nil })
	if _, err := g.Launch(p, Dim1(1), Dim1(32), din, dout); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot")
	}
	fork := newTestGPU(t)
	fork.StopWhenGolden(true)
	fork.Restore(snap)
	// Inert on its own: the texture cache is empty.
	if err := fork.ArmFault(&FaultSpec{Structure: StructL1T, Cycle: snap.Cycle + 1, BitPositions: []int64{60}, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := fork.runLaunch(); err != nil || fork.Stopped() != NotStopped {
		t.Fatalf("a copy of a faulty device stopped: %v, reason %d", err, fork.Stopped())
	}
}

// watchAppCfg is testConfig with one knob the fuzz turns.
func watchAppCfg(ecc bool) *config.GPU {
	cfg := testConfig()
	cfg.ECC = ecc
	return cfg
}

// watchApp is a small application with everything the watch has to get
// right in it: a shared-memory reduction launched twice (so CTA ids recur),
// a local-memory kernel, a texture kernel, divergence, barriers, early
// exits and predicated code. It returns the concatenated outputs and the
// first error.
func watchApp(t *testing.T, g *GPU) ([]byte, error) {
	const reduce = `
.kernel reduce
.smem 256
	S2R R0, %tid.x
	S2R R1, %ctaid.x
	S2R R2, %ntid.x
	IMAD R3, R1, R2, R0
	LDC R4, c[0]
	LDC R5, c[4]
	SHL R6, R3, 2
	IADD R6, R4, R6
	LDG R7, [R6]
	SHL R8, R0, 2
	STS [R8], R7
	BAR
	MOV R9, 32
fold:
	ISETP.LT P0, R9, 1
@P0	BRA done
	ISETP.GE P1, R0, R9
@P1	BRA skip
	IADD R10, R0, R9
	SHL R10, R10, 2
	LDS R11, [R10]
	LDS R12, [R8]
	IADD R12, R12, R11
	STS [R8], R12
skip:
	BAR
	SHR R9, R9, 1
	BRA fold
done:
	ISETP.NE P2, R0, 0
@P2	EXIT
	LDS R13, [0]
	SHL R14, R1, 2
	IADD R14, R5, R14
	STG [R14], R13
	EXIT
`
	const local = `
.kernel localmem
.local 32
	S2R R0, %gtid
	LDC R1, c[0]
	MOV R2, 0
wr:
	ISETP.GE P0, R2, 8
@P0	BRA rd
	SHL R3, R2, 2
	IMAD R4, R0, 8, R2
	STL [R3], R4
	IADD R2, R2, 1
	BRA wr
rd:
	MOV R5, 0
	MOV R2, 0
rdloop:
	ISETP.GE P0, R2, 8
@P0	BRA out
	SHL R3, R2, 2
	LDL R6, [R3]
	IADD R5, R5, R6
	IADD R2, R2, 1
	BRA rdloop
out:
	SHL R7, R0, 2
	IADD R8, R1, R7
	STG [R8], R5
	EXIT
`
	const tex = `
.kernel tex
	S2R R0, %gtid
	LDC R1, c[0]
	LDC R2, c[4]
	SHL R3, R0, 2
	IADD R4, R1, R3
	TLD R5, [R4]
	ISETP.LT P0, R0, 40
@P0	IADD R5, R5, 7
	IADD R6, R2, R3
	STG [R6], R5
	EXIT
`
	pr, pl, pt := mustAssemble(t, reduce), mustAssemble(t, local), mustAssemble(t, tex)
	const nCTA, ctaSize = 4, 64
	n := nCTA * ctaSize
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(i*7 + 3)
	}
	din, err := g.Malloc(uint32(4 * n))
	if err != nil {
		return nil, err
	}
	dsum, err := g.Malloc(4 * nCTA)
	if err != nil {
		return nil, err
	}
	dsum2, err := g.Malloc(4 * nCTA)
	if err != nil {
		return nil, err
	}
	dloc, err := g.Malloc(4 * 64)
	if err != nil {
		return nil, err
	}
	dtex, err := g.Malloc(4 * 64)
	if err != nil {
		return nil, err
	}
	if err := g.MemcpyHtoD(din, u32sToBytes(in)); err != nil {
		return nil, err
	}
	if _, err := g.Launch(pr, Dim1(nCTA), Dim1(ctaSize), din, dsum); err != nil {
		return nil, err
	}
	if _, err := g.Launch(pl, Dim1(2), Dim1(32), dloc); err != nil {
		return nil, err
	}
	if _, err := g.Launch(pr, Dim1(nCTA), Dim1(ctaSize), din, dsum2); err != nil {
		return nil, err
	}
	if _, err := g.Launch(pt, Dim1(2), Dim1(32), din, dtex); err != nil {
		return nil, err
	}
	out := make([]byte, 4*(2*nCTA+128))
	off := 0
	for _, b := range []struct {
		addr uint32
		n    int
	}{{dsum, 4 * nCTA}, {dsum2, 4 * nCTA}, {dloc, 4 * 64}, {dtex, 4 * 64}} {
		if err := g.MemcpyDtoH(out[off:off+b.n], b.addr); err != nil {
			return nil, err
		}
		off += b.n
	}
	return out, nil
}

// appRun is what one run of watchApp left behind.
type appRun struct {
	out    []byte
	err    string
	cycle  uint64
	stop   StopReason
	recs   []InjectionRecord
	events []TraceEvent
	sum    *TraceSummary
}

func runWatchApp(t *testing.T, g *GPU) appRun {
	t.Helper()
	out, err := watchApp(t, g)
	r := appRun{out: out, err: fmt.Sprint(err), cycle: g.Cycle(), stop: g.Stopped(),
		events: g.TraceEvents(), sum: g.TraceSummary()}
	for _, rec := range g.Injections() {
		r.recs = append(r.recs, *rec)
	}
	return r
}

// checkDeadAgainstWatch is the property of the dead-on-arrival rule, given
// the same faults run with every rule on (got) and with the watch alone: what
// it calls dead, the watch sees overwritten or exited unread — never read —
// and nothing else changes a verdict. The rule moves a stop to the cycle of
// the injection and moves nothing else.
func checkDeadAgainstWatch(got, watch appRun) error {
	if got.stop == StopDead {
		if watch.stop != StopOverwritten && watch.stop != StopRetired {
			return fmt.Errorf("dead on arrival (clock %d), but the watch alone ends with stop reason %d, %q at cycle %d",
				got.cycle, watch.stop, watch.err, watch.cycle)
		}
		if watch.cycle <= got.cycle {
			return fmt.Errorf("dead on arrival with the clock at %d, the watch alone stopped in cycle %d", got.cycle, watch.cycle)
		}
		if !reflect.DeepEqual(got.recs, watch.recs) {
			return fmt.Errorf("injection records %+v, the watch alone has %+v", got.recs, watch.recs)
		}
		return nil
	}
	if !reflect.DeepEqual(got, watch) {
		return fmt.Errorf("not dead on arrival, yet stop %d %q cycle %d differs from the watch alone: stop %d %q cycle %d",
			got.stop, got.err, got.cycle, watch.stop, watch.err, watch.cycle)
	}
	return nil
}

// checkStopAgainstRunToEnd is the property every stop must have, given the
// same faults run with stopping on (got) and off (toEnd) and the golden run:
// a run that stopped is one whose run to the end is the golden run, with the
// trace it already had; a run that did not stop is the run to the end.
func checkStopAgainstRunToEnd(got, toEnd, gold appRun) error {
	if !reflect.DeepEqual(got.recs, toEnd.recs) {
		return fmt.Errorf("injection records %+v, run to the end has %+v", got.recs, toEnd.recs)
	}
	if !reflect.DeepEqual(got.events, toEnd.events) || !reflect.DeepEqual(got.sum, toEnd.sum) {
		return fmt.Errorf("trace differs from the run to the end (stop reason %d):\n got:    %+v %+v\n to end: %+v %+v",
			got.stop, got.events, got.sum, toEnd.events, toEnd.sum)
	}
	if got.stop == NotStopped {
		if got.err != toEnd.err || got.cycle != toEnd.cycle || !bytes.Equal(got.out, toEnd.out) {
			return fmt.Errorf("a run that did not stop ended %q at cycle %d, the run to the end %q at %d",
				got.err, got.cycle, toEnd.err, toEnd.cycle)
		}
		return nil
	}
	if got.err != ErrGoldenRun.Error() {
		return fmt.Errorf("stopped (reason %d) with error %q", got.stop, got.err)
	}
	if toEnd.err != "<nil>" || toEnd.cycle != gold.cycle || !bytes.Equal(toEnd.out, gold.out) {
		return fmt.Errorf("stopped (reason %d) at cycle %d, but the run to the end is not the golden run: %q, cycle %d (golden %d), output equal %v",
			got.stop, got.cycle, toEnd.err, toEnd.cycle, gold.cycle, bytes.Equal(toEnd.out, gold.out))
	}
	if got.cycle > gold.cycle {
		return fmt.Errorf("stopped at cycle %d, past the golden run's last (%d)", got.cycle, gold.cycle)
	}
	return nil
}

// faultedApp runs watchApp on a new device of cfg with the specs armed.
func faultedApp(t *testing.T, cfg *config.GPU, specs []*FaultSpec, mode stopMode, trace bool) appRun {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mode.apply(g)
	g.CycleLimit = 20000
	if trace {
		g.EnableTrace()
	}
	for _, s := range specs {
		if err := g.ArmFault(s); err != nil {
			t.Fatal(err)
		}
	}
	CheckLiveStateEveryCycle(g, func(err error) { t.Error(err) })
	return runWatchApp(t, g)
}

// TestVesselForgetsTheLastFault runs four experiments of four kinds on one
// fork vessel — one that stops early, one that runs to the end, one that
// crashes, one that stops early again — and wants from each what a device
// that never ran anything gives: the watch and the verdict of one experiment
// must not reach the next.
func TestVesselForgetsTheLastFault(t *testing.T) {
	cfg := testConfig()
	gold := faultedApp(t, cfg, nil, toTheEnd, false)
	if gold.err != "<nil>" {
		t.Fatal(gold.err)
	}
	at := gold.cycle / 3
	// Pick one spec of each kind by what it does on a new device.
	var stops, runs, crashes *FaultSpec
	for seed := int64(0); seed < 400 && (stops == nil || runs == nil || crashes == nil); seed++ {
		spec := &FaultSpec{Structure: StructRegFile, Cycle: at + 2 + uint64(seed%40),
			BitPositions: []int64{(seed * 37) % (15 * 32)}, Seed: seed}
		r := faultedApp(t, cfg, []*FaultSpec{spec}, stopEarly, false)
		switch {
		case r.stop == StopOverwritten || r.stop == StopRetired || r.stop == StopDead:
			stops = spec
		case r.err == "<nil>" && !bytes.Equal(r.out, gold.out):
			runs = spec
		case strings.Contains(r.err, "violation"):
			crashes = spec
		}
	}
	if stops == nil || runs == nil || crashes == nil {
		t.Fatalf("no spec of some kind: stops %v, runs on %v, crashes %v", stops, runs, crashes)
	}

	prefix := newTestGPU(t)
	prefix.EnableRecording()
	var vessel *GPU
	prefix.SnapshotAt([]uint64{at}, func(s *Snapshot) error {
		for i, spec := range []*FaultSpec{stops, runs, crashes, stops} {
			if vessel == nil {
				vessel = NewFork(s)
			} else {
				vessel.Refork(s)
			}
			vessel.StopWhenGolden(true)
			vessel.CycleLimit = 20000
			if err := vessel.ArmFault(spec); err != nil {
				t.Fatal(err)
			}
			CheckLiveStateEveryCycle(vessel, func(err error) { t.Error(err) })
			got := runWatchApp(t, vessel)
			want := faultedApp(t, cfg, []*FaultSpec{spec}, stopEarly, false)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("experiment %d on the vessel: %q cycle %d stop %d, a new device gives %q cycle %d stop %d",
					i, got.err, got.cycle, got.stop, want.err, want.cycle, want.stop)
			}
		}
		return ErrReplayStop
	})
	if _, err := watchApp(t, prefix); !errors.Is(err, ErrReplayStop) {
		t.Fatal(err)
	}
}

// chainOf makes the fuzzed faults four experiments of one campaign cluster,
// in the order a worker would run them on its vessel: the faults, the same
// faults again (two jobs at one cycle), the faults a few cycles later, and
// the first again — by then at a cycle the vessel has passed. The snapshot
// they fork from is taken up to fifteen cycles ahead of the first.
func chainOf(specs []*FaultSpec, trace bool, seed int64, lastCycle uint64) (snapAt uint64, jobs []chainJob) {
	var later []*FaultSpec
	by := 1 + uint64(seed>>8)&63
	for _, s := range specs {
		c := *s
		c.Cycle = min(s.Cycle+by, lastCycle)
		c.Seed ^= 0x2545F491
		later = append(later, &c)
	}
	snapAt = specs[0].Cycle - 1
	snapAt -= min(snapAt, uint64(seed>>16)&15)
	return snapAt, []chainJob{
		{name: "first", specs: specs, trace: trace},
		{name: "again, same cycle", specs: specs, trace: trace},
		{name: "later", specs: later, trace: trace},
		{name: "first again", specs: specs, trace: trace},
	}
}

// fuzzedFaults turns FuzzEarlyStopSpec's arguments into the faults of one
// experiment on watchApp (flags: 1 warp-wide, 2 ECC, 4 two blocks, 8 traced,
// 16 a second fault flags>>5 cycles on).
func fuzzedFaults(lastCycle uint64, cycle uint16, structure uint8, b0, b1, b2 uint32, seed int64, flags uint8) (specs []*FaultSpec, trace bool) {
	spec := &FaultSpec{
		Structure:    Structure(structure % uint8(structCount)),
		Cycle:        1 + uint64(cycle)%lastCycle,
		BitPositions: []int64{int64(b0)},
		WarpWide:     flags&1 != 0,
		Blocks:       1 + int(flags>>2&1),
		Seed:         seed,
	}
	if b1 != 0 {
		spec.BitPositions = append(spec.BitPositions, int64(b1))
	}
	if b2 != 0 {
		spec.BitPositions = append(spec.BitPositions, int64(b2))
	}
	specs = []*FaultSpec{spec}
	if flags&16 != 0 {
		// A second fault, in another structure, at the same instant or later.
		second := *spec
		second.Structure = Structure((structure + 1 + uint8(seed&3)) % uint8(structCount))
		second.Cycle += uint64(flags >> 5)
		second.Seed = seed ^ 0x5bd1e995
		specs = append(specs, &second)
	}
	return specs, flags&8 != 0
}

// FuzzEarlyStopSpec arms one or two arbitrary faults on watchApp and runs it
// with stopping on and off: whatever the structure, cycle, bits, container
// seed, multiplicity, ECC setting and tracing, the pair must satisfy
// checkStopAgainstRunToEnd, a dead-on-arrival stop must be one the watch
// reaches too (checkDeadAgainstWatch), and the faults run as experiments on
// one vessel, some carrying on from the stop before them, must each end as
// on a new device (runChain).
func FuzzEarlyStopSpec(f *testing.F) {
	f.Add(uint16(300), uint8(0), uint32(163), uint32(0), uint32(0), int64(1), uint8(0))
	f.Add(uint16(900), uint8(1), uint32(1300), uint32(77), uint32(0), int64(2), uint8(4))
	f.Add(uint16(40), uint8(3), uint32(3), uint32(4000), uint32(90000), int64(3), uint8(8))
	f.Add(uint16(1500), uint8(0), uint32(200), uint32(230), uint32(260), int64(4), uint8(1))
	f.Add(uint16(700), uint8(2), uint32(9), uint32(0), uint32(0), int64(5), uint8(16))
	f.Add(uint16(1100), uint8(7), uint32(5000), uint32(0), uint32(0), int64(6), uint8(2))
	golds := map[bool]appRun{}
	f.Fuzz(func(t *testing.T, cycle uint16, structure uint8, b0, b1, b2 uint32, seed int64, flags uint8) {
		ecc := flags&2 != 0
		cfg := watchAppCfg(ecc)
		gold, ok := golds[ecc]
		if !ok {
			gold = faultedApp(t, cfg, nil, toTheEnd, false)
			if gold.err != "<nil>" {
				t.Fatal(gold.err)
			}
			golds[ecc] = gold
		}
		specs, trace := fuzzedFaults(gold.cycle, cycle, structure, b0, b1, b2, seed, flags)
		spec := specs[0]
		got := faultedApp(t, cfg, specs, stopEarly, trace)
		toEnd := faultedApp(t, cfg, specs, toTheEnd, trace)
		if err := checkStopAgainstRunToEnd(got, toEnd, gold); err != nil {
			t.Fatalf("%+v (%d faults, ecc %v, traced %v): %v", *spec, len(specs), ecc, trace, err)
		}
		if err := checkDeadAgainstWatch(got, faultedApp(t, cfg, specs, watchOnly, trace)); err != nil {
			t.Fatalf("%+v (%d faults, ecc %v, traced %v): %v", *spec, len(specs), ecc, trace, err)
		}
		snapAt, jobs := chainOf(specs, trace, seed, gold.cycle)
		runChain(t, cfg, snapAt, false, jobs)
	})
}

// TestEarlyStopRandomSpecs is FuzzEarlyStopSpec's property over a seeded
// stream of faults, sized so that every stop reason and every way of running
// on occur, traced and untraced.
func TestEarlyStopRandomSpecs(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 150
	}
	rng := rand.New(rand.NewSource(22))
	golds := map[bool]appRun{}
	var byReason [StopDead + 1]int
	chained := 0
	for i := 0; i < n; i++ {
		ecc, trace := rng.Intn(6) == 0, rng.Intn(3) == 0
		cfg := watchAppCfg(ecc)
		gold, ok := golds[ecc]
		if !ok {
			gold = faultedApp(t, cfg, nil, toTheEnd, false)
			golds[ecc] = gold
		}
		st := Structure(rng.Intn(int(structCount)))
		if k := rng.Intn(10); k < 6 { // most faults where the dead-unread rule applies
			st = []Structure{StructRegFile, StructRegFile, StructShared}[k/2]
		}
		spec := &FaultSpec{Structure: st, Cycle: 1 + uint64(rng.Int63n(int64(gold.cycle))), Seed: rng.Int63(),
			WarpWide: rng.Intn(5) == 0, Blocks: 1 + rng.Intn(2)}
		size := int64(15 * 32) // registers
		switch st {
		case StructShared:
			size = 256 * 8
		case StructLocal:
			size = 32 * 8
		case StructL1D, StructL1T, StructL1C, StructL1I:
			size = cfg.L1D.SizeBits()
		case StructL2:
			size = cfg.L2.SizeBits()
		}
		for b := 1 + 2*rng.Intn(2); b > 0; b-- {
			spec.BitPositions = append(spec.BitPositions, rng.Int63n(size))
		}
		specs := []*FaultSpec{spec}
		if rng.Intn(8) == 0 {
			second := *spec
			second.Structure = Structure(rng.Intn(int(structCount)))
			second.Seed = rng.Int63()
			specs = append(specs, &second)
		}
		got := faultedApp(t, cfg, specs, stopEarly, trace)
		toEnd := faultedApp(t, cfg, specs, toTheEnd, trace)
		if err := checkStopAgainstRunToEnd(got, toEnd, gold); err != nil {
			t.Fatalf("spec %d %+v (%d faults, ecc %v, traced %v): %v", i, *spec, len(specs), ecc, trace, err)
		}
		if err := checkDeadAgainstWatch(got, faultedApp(t, cfg, specs, watchOnly, trace)); err != nil {
			t.Fatalf("spec %d %+v (%d faults, ecc %v, traced %v): %v", i, *spec, len(specs), ecc, trace, err)
		}
		byReason[got.stop]++
		if i%4 == 0 {
			snapAt, jobs := chainOf(specs, trace, spec.Seed, gold.cycle)
			_, carriedOn := runChain(t, cfg, snapAt, false, jobs)
			for _, did := range carriedOn {
				if did {
					chained++
				}
			}
		}
	}
	if chained == 0 {
		t.Error("no experiment on a vessel carried on without a restore")
	}
	t.Logf("of %d runs: %d ran to the end, %d stopped inert, %d overwritten, %d retired, %d dead on arrival; %d vessel experiments carried on without a restore",
		n, byReason[NotStopped], byReason[StopInert], byReason[StopOverwritten], byReason[StopRetired], byReason[StopDead], chained)
	for r, c := range byReason {
		if c == 0 {
			t.Errorf("no run ended with stop reason %d", r)
		}
	}
}

// TestTagFlipPerformanceRunsToItsOwnEnd pins the case that must never stop:
// a tag flip on a valid line that costs only a refetch. The output is the
// golden one and the cycle count is not, which is the Performance outcome,
// and only the run's own last cycle can say so. The line holding in[] is
// found by trying every line of the L1D.
func TestTagFlipPerformanceRunsToItsOwnEnd(t *testing.T) {
	// The prologue's LDG brings in[]'s line into the L1D; the body reads it again.
	src := lineKernel("NOP\nNOP\nLDG R10, [R4]\nIADD R9, R9, R10")
	gold := runLine(t, src, nil, toTheEnd, false)
	l1d := testConfig().L1D
	slower := 0
	for line := 0; line < l1d.Lines(); line++ {
		spec := &FaultSpec{Structure: StructL1D, Cycle: gold.issue[bodyPC],
			BitPositions: []int64{int64(line)*int64(l1d.LineBits()) + 3}, CoreMask: []int{0}, Seed: 1}
		toEnd := runLine(t, src, spec, toTheEnd, false)
		if toEnd.err != nil || !bytes.Equal(toEnd.out, gold.out) || toEnd.cycle == gold.cycle {
			continue
		}
		slower++
		got := runLine(t, src, spec, stopEarly, false)
		if got.stop != NotStopped || got.err != nil || got.cycle != toEnd.cycle || !bytes.Equal(got.out, gold.out) {
			t.Errorf("line %d: stop %d, error %v, cycle %d; the run to the end takes %d cycles (golden %d)",
				line, got.stop, got.err, got.cycle, toEnd.cycle, gold.cycle)
		}
	}
	if slower == 0 {
		t.Fatal("no tag flip changed the cycle count alone: the test shows nothing")
	}
}

// WatchOnly turns the dead-on-arrival rule off on g. Exported to the
// package's external tests, which drive the benchmark applications.
func WatchOnly(g *GPU) { g.watchOnly = true }

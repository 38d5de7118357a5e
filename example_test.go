package gpufi_test

import (
	"encoding/binary"
	"fmt"
	"log"
	"sort"

	"gpufi"
)

// quickstartSrc computes out[i] = in[i]*3 + 1.
const quickstartSrc = `
.kernel saxpyish
	S2R   R0, %gtid
	LDC   R1, c[0]             // &in
	LDC   R2, c[4]             // &out
	LDC   R3, c[8]             // n
	ISETP.GE P0, R0, R3
@P0	EXIT
	SHL   R4, R0, 2
	IADD  R5, R1, R4
	LDG   R6, [R5]
	IMAD  R6, R6, 3, R0
	ISUB  R6, R6, R0
	IADD  R6, R6, 1
	IADD  R7, R2, R4
	STG   [R7], R6
	EXIT
`

// saxpyish runs the quickstart kernel over 0..n-1 on a fresh RTX 2060,
// with spec armed when it is not nil, and returns the output array.
func saxpyish(prog *gpufi.Program, n int, spec *gpufi.FaultSpec) []uint32 {
	dev, err := gpufi.NewDevice(gpufi.RTX2060())
	if err != nil {
		log.Fatal(err)
	}
	if spec != nil {
		if err := dev.ArmFault(spec); err != nil {
			log.Fatal(err)
		}
	}
	in := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(in[4*i:], uint32(i))
	}
	din, err := dev.Malloc(uint32(4 * n))
	if err != nil {
		log.Fatal(err)
	}
	dout, err := dev.Malloc(uint32(4 * n))
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.MemcpyHtoD(din, in); err != nil {
		log.Fatal(err)
	}
	if _, err := dev.Launch(prog, gpufi.Dim1(n/64), gpufi.Dim1(64), din, dout, uint32(n)); err != nil {
		log.Fatal(err)
	}
	out := make([]byte, 4*n)
	if err := dev.MemcpyDtoH(out, dout); err != nil {
		log.Fatal(err)
	}
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(out[4*i:])
	}
	fmt.Printf("run took %d cycles", dev.Cycle())
	if rec := dev.Injection(); rec != nil {
		fmt.Printf("; injection: %s at cycle %d (core %d)", rec.Detail, rec.Cycle, rec.Core)
	}
	fmt.Println()
	return vals
}

// Assemble a tiny kernel, run it on a simulated RTX 2060, then run it
// again with one register-file bit flipped and compare the outputs.
func Example_quickstart() {
	prog, err := gpufi.Assemble(quickstartSrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled kernel %q: %d instructions, %d registers/thread\n",
		prog.Name, len(prog.Instrs), prog.RegsPerThread)

	const n = 256
	fmt.Println("-- fault-free run --")
	golden := saxpyish(prog, n, nil)
	fmt.Println("-- with a bit flip in register R6 (live data) --")
	faulty := saxpyish(prog, n, &gpufi.FaultSpec{
		Structure:    gpufi.StructRegFile,
		Cycle:        60,
		BitPositions: []int64{6*32 + 17}, // R6, bit 17
		Seed:         1,
	})

	diffs := 0
	for i := range golden {
		if golden[i] != faulty[i] {
			diffs++
			if diffs <= 3 {
				fmt.Printf("out[%d]: %d -> %d\n", i, golden[i], faulty[i])
			}
		}
	}
	if diffs == 0 {
		fmt.Println("outcome: Masked (the flipped bit was overwritten or dead)")
	} else {
		fmt.Printf("outcome: SDC — %d corrupted outputs\n", diffs)
	}
	// Output:
	// assembled kernel "saxpyish": 15 instructions, 8 registers/thread
	// -- fault-free run --
	// run took 1265 cycles
	// -- with a bit flip in register R6 (live data) --
	// run took 1265 cycles; injection: regfile flip x1 at cycle 60 (core 0)
	// out[33]: 100 -> 393316
	// outcome: SDC — 1 corrupted outputs
}

// spinsumSrc writes the sum of 0..199 to out[i], computed in a loop so the
// instruction lines are refetched every iteration and armed L1I hooks get
// a chance to fire.
const spinsumSrc = `
.kernel spinsum
	S2R R0, %gtid
	LDC R1, c[0]
	MOV R2, 0
	MOV R3, 0
top:
	ISETP.GE P0, R3, 200
@P0	BRA done
	IADD R2, R2, R3
	IADD R3, R3, 1
	BRA top
done:
	SHL R4, R0, 2
	IADD R5, R1, R4
	STG [R5], R2
	EXIT
`

// Instruction-cache faults, an extension: the paper defers L1I injection,
// while here the kernel binary lives in device memory and fetches flow
// through each core's L1I. Each run flips one data bit in every L1I line;
// a flip on a valid line decodes into a different instruction. An illegal
// opcode or operand aborts the launch (*sim.IllegalInstr, a Crash),
// corrupted arithmetic yields a wrong sum (SDC), and flips on unused
// fields or invalid lines are Masked. None of these 60 runs turned a
// branch into an endless loop, so there is no Timeout.
func Example_instrfault() {
	const (
		runs = 60
		n    = 128           // threads: 4 CTAs of 32
		want = 199 * 200 / 2 // what every thread writes
	)
	prog, err := gpufi.Assemble(spinsumSrc)
	if err != nil {
		log.Fatal(err)
	}
	gpu := gpufi.RTX2060()
	lineBits := int64(gpu.L1I.LineBits())

	outcomes := map[string]int{}
	for seed := int64(0); seed < runs; seed++ {
		dev, err := gpufi.NewDevice(gpu)
		if err != nil {
			log.Fatal(err)
		}
		bit := 57 + (seed*197)%(lineBits-57) // a data bit, past the 57 tag bits
		var positions []int64
		for line := int64(0); line < int64(gpu.L1I.Lines()); line++ {
			positions = append(positions, line*lineBits+bit)
		}
		if err := dev.ArmFault(&gpufi.FaultSpec{
			Structure:    gpufi.StructL1I,
			Cycle:        150 + uint64(seed)*31,
			BitPositions: positions,
			Seed:         seed,
		}); err != nil {
			log.Fatal(err)
		}
		dev.CycleLimit = 1 << 21
		dout, err := dev.Malloc(4 * n)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := dev.Launch(prog, gpufi.Dim1(4), gpufi.Dim1(32), dout); err != nil {
			outcomes[fmt.Sprintf("%T", err)]++
			continue
		}
		out := make([]byte, 4*n)
		if err := dev.MemcpyDtoH(out, dout); err != nil {
			log.Fatal(err)
		}
		class := "Masked"
		for i := 0; i < n; i++ {
			if binary.LittleEndian.Uint32(out[4*i:]) != want {
				class = "SDC"
				break
			}
		}
		outcomes[class]++
	}
	classes := make([]string, 0, len(outcomes))
	for c := range outcomes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Printf("L1 instruction cache faults over %d injections:\n", runs)
	for _, c := range classes {
		fmt.Printf("  %-22s %d\n", c, outcomes[c])
	}
	// Output:
	// L1 instruction cache faults over 60 injections:
	//   *sim.IllegalInstr      4
	//   Masked                 55
	//   SDC                    1
}

// sweepSrc has one CTA of 64 threads sweep a buffer passes times; sized to
// the L1D, the whole working set stays resident in one SM's cache.
const sweepSrc = `
.kernel sweep
	S2R R0, %tid.x
	LDC R1, c[0]             // &in
	LDC R2, c[4]             // &out
	LDC R3, c[8]             // n
	LDC R4, c[12]            // passes
	MOV R8, 0                // pass counter
	MOV R9, 0f               // acc
sweep_pass:
	ISETP.GE P0, R8, R4
@P0	BRA sweep_done
	MOV R10, R0              // idx = tid
sweep_elem:
	ISETP.GE P1, R10, R3
@P1	BRA sweep_next
	SHL R11, R10, 2
	IADD R11, R1, R11
	LDG R12, [R11]
	FADD R9, R9, R12
	IADD R10, R10, 64
	BRA sweep_elem
sweep_next:
	IADD R8, R8, 1
	BRA sweep_pass
sweep_done:
	SHL R13, R0, 2
	IADD R13, R2, R13
	STG [R13], R9
	EXIT
`

// sweep runs the cachestudy kernel over an n-word buffer on dev and
// returns the output bytes.
func sweep(dev *gpufi.Device, prog *gpufi.Program, n, passes int) ([]byte, error) {
	in := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(in[4*i:], uint32(i%251))
	}
	din, err := dev.Malloc(uint32(4 * n))
	if err != nil {
		return nil, err
	}
	dout, err := dev.Malloc(uint32(4 * n))
	if err != nil {
		return nil, err
	}
	if err := dev.MemcpyHtoD(din, in); err != nil {
		return nil, err
	}
	if _, err := dev.Launch(prog, gpufi.Dim1(1), gpufi.Dim1(64), din, dout, uint32(n), uint32(passes)); err != nil {
		return nil, err
	}
	out := make([]byte, 4*n)
	if err := dev.MemcpyDtoH(out, dout); err != nil {
		return nil, err
	}
	return out, nil
}

// Cache-resident faults. The twelve paper benchmarks run at reduced sizes,
// so most cache lines are invalid and their cache campaigns mask heavily.
// This kernel's 32 KB working set, half the 64 KB L1D of the one active
// SM, is read four times, so single-bit L1D flips land on live lines: a
// data-bit hook fires on the next read hit (SDC), a tag flip forces a
// refetch (Performance), and the rest hit invalid or dead lines (Masked).
func Example_cachestudy() {
	const (
		runs   = 200
		passes = 4
		seed   = 1
		n      = 8192 // 32 KB
	)
	prog, err := gpufi.Assemble(sweepSrc)
	if err != nil {
		log.Fatal(err)
	}
	gpu := gpufi.RTX2060()
	dev, err := gpufi.NewDevice(gpu)
	if err != nil {
		log.Fatal(err)
	}
	golden, err := sweep(dev, prog, n, passes)
	if err != nil {
		log.Fatal(err)
	}
	total := dev.Cycle()
	fmt.Printf("golden run: %d cycles; L1D stats: %+v\n", total, dev.CoreL1D(0).Stats())

	size := gpu.L1D.SizeBits()
	var counts gpufi.Counts
	for i := 0; i < runs; i++ {
		dev, err := gpufi.NewDevice(gpu)
		if err != nil {
			log.Fatal(err)
		}
		dev.CycleLimit = 2 * total
		mix := uint64(seed)<<20 + uint64(i)
		bit := int64(mix*0x9E3779B9) % size
		if bit < 0 {
			bit = -bit
		}
		if err := dev.ArmFault(&gpufi.FaultSpec{
			Structure:    gpufi.StructL1D,
			Cycle:        50 + mix*2654435761%total,
			BitPositions: []int64{bit},
			CoreMask:     []int{0}, // the single active SM
			Seed:         int64(i),
		}); err != nil {
			log.Fatal(err)
		}
		out, err := sweep(dev, prog, n, passes)
		switch {
		case err != nil && dev.Cycle() >= 2*total:
			counts.Add(gpufi.Timeout)
		case err != nil:
			counts.Add(gpufi.Crash)
		case string(out) != string(golden):
			counts.Add(gpufi.SDC)
		case dev.Cycle() != total:
			counts.Add(gpufi.Performance)
		default:
			counts.Add(gpufi.Masked)
		}
	}
	fmt.Printf("l1d: %+v  FR=%.4f\n", counts, counts.FailureRatio())
	// Output:
	// golden run: 80330 cycles; L1D stats: {Accesses:1026 Hits:768 Misses:258 Evictions:256 Writebacks:0 TagFlips:0 HookArms:0 HookFires:0 HookKills:0}
	// l1d: {Masked:134 SDC:61 Crash:0 Timeout:0 Performance:5}  FR=0.3050
}

// A kernel whose 1,024 resident threads use 32 registers each fills half
// of a 65,536-register SM: 32 x 1024 / 65536 = 0.5.
func ExampleDfReg() {
	fmt.Printf("%.4f\n", gpufi.DfReg(32, 1024, 65536))
	// Output: 0.5000
}

// Six resident CTAs of 4 KB shared memory each fill 24 KB of a 64 KB SM:
// 4096 x 6 / 65536 = 0.375.
func ExampleDfSmem() {
	fmt.Printf("%.4f\n", gpufi.DfSmem(4096, 6, 65536))
	// Output: 0.3750
}

// The register file fails 40 of 100 runs, derated by half: 0.2 over 1,000
// bits. The L1D fails 10 of 100, not derated: 0.1 over 3,000 bits. Eq. (2)
// weighs them by size: (0.2 x 1000 + 0.1 x 3000) / 4000 = 0.125.
func ExampleKernelAVF() {
	fmt.Printf("%.4f\n", gpufi.KernelAVF([]gpufi.StructResult{
		{Name: "regfile", Counts: gpufi.Counts{Masked: 60, SDC: 30, Crash: 10}, SizeBits: 1000, Derate: 0.5},
		{Name: "l1d", Counts: gpufi.Counts{Masked: 90, SDC: 10}, SizeBits: 3000, Derate: 1},
	}))
	// Output: 0.1250
}

// Eq. (3) weighs each kernel's AVF by its cycles:
// (0.125 x 3000 + 0.325 x 1000) / 4000 = 0.175.
func ExampleWeightedAVF() {
	fmt.Printf("%.4f\n", gpufi.WeightedAVF([]gpufi.KernelEntry{
		{Name: "k1", AVF: 0.125, Cycles: 3000},
		{Name: "k2", AVF: 0.325, Cycles: 1000},
	}))
	// Output: 0.1750
}

// An AVF of 0.125 over 4,000,000 bits at 2e-6 raw FIT per bit:
// 0.125 x 2e-6 x 4e6 = 1 failure in 10^9 hours.
func ExampleFIT() {
	fmt.Printf("%.4f\n", gpufi.FIT(0.125, 2e-6, 4_000_000))
	// Output: 1.0000
}

package sim

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"gpufi/internal/asm"
	"gpufi/internal/config"
	"gpufi/internal/isa"
)

// testConfig returns a small, fast GPU model for unit tests.
func testConfig() *config.GPU {
	return &config.GPU{
		Name:            "TestGPU",
		SMs:             4,
		WarpSize:        32,
		MaxThreadsPerSM: 256,
		MaxCTAsPerSM:    8,
		RegistersPerSM:  8192,
		SmemPerSM:       16 * 1024,
		L1D:             &config.Cache{Sets: 16, Ways: 4, LineBytes: 128, HitCycles: 4},
		L1T:             &config.Cache{Sets: 16, Ways: 4, LineBytes: 128, HitCycles: 4},
		L1I:             &config.Cache{Sets: 16, Ways: 4, LineBytes: 128, HitCycles: 1},
		L1C:             &config.Cache{Sets: 16, Ways: 4, LineBytes: 64, HitCycles: 2},
		L2:              &config.Cache{Sets: 128, Ways: 4, LineBytes: 128, HitCycles: 8},
		L2Banks:         2,
		ALULatency:      2,
		SFULatency:      4,
		SmemLatency:     3,
		DRAMLatency:     20,
		IssuePerCycle:   2,
		ProcessNm:       12,
		RawFITPerBit:    1.8e-6,
	}
}

func newTestGPU(t *testing.T) *GPU {
	t.Helper()
	g, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func u32sToBytes(v []uint32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], x)
	}
	return b
}

func bytesToU32s(b []byte) []uint32 {
	v := make([]uint32, len(b)/4)
	for i := range v {
		v[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return v
}

const vecaddAsm = `
.kernel vecadd
	S2R   R0, %gtid
	LDC   R1, c[0]
	LDC   R2, c[4]
	LDC   R3, c[8]
	LDC   R4, c[12]
	ISETP.GE P0, R0, R4
@P0	EXIT
	SHL   R5, R0, 2
	IADD  R6, R1, R5
	LDG   R7, [R6]
	IADD  R6, R2, R5
	LDG   R8, [R6]
	FADD  R7, R7, R8
	IADD  R6, R3, R5
	STG   [R6], R7
	EXIT
`

// runVecadd launches vecadd over n elements and returns the result.
func runVecadd(t *testing.T, g *GPU, n int) []float32 {
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
		t.Fatal(err)
	}
	db, _ := g.Malloc(uint32(4 * n))
	dc, _ := g.Malloc(uint32(4 * n))
	if err := g.MemcpyHtoD(da, u32sToBytes(a)); err != nil {
		t.Fatal(err)
	}
	if err := g.MemcpyHtoD(db, u32sToBytes(b)); err != nil {
		t.Fatal(err)
	}
	grid := Dim1((n + 63) / 64)
	if _, err := g.Launch(p, grid, Dim1(64), da, db, dc, uint32(n)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*n)
	if err := g.MemcpyDtoH(out, dc); err != nil {
		t.Fatal(err)
	}
	words := bytesToU32s(out)
	res := make([]float32, n)
	for i := range res {
		res[i] = isa.F32(words[i])
	}
	return res
}

func TestVectorAdd(t *testing.T) {
	g := newTestGPU(t)
	res := runVecadd(t, g, 200)
	for i, v := range res {
		if want := float32(3 * i); v != want {
			t.Fatalf("c[%d] = %g, want %g", i, v, want)
		}
	}
}

func TestDeterministicCycles(t *testing.T) {
	g1 := newTestGPU(t)
	g2 := newTestGPU(t)
	runVecadd(t, g1, 300)
	runVecadd(t, g2, 300)
	if g1.Cycle() != g2.Cycle() {
		t.Errorf("cycles differ: %d vs %d", g1.Cycle(), g2.Cycle())
	}
	if g1.Cycle() == 0 {
		t.Error("no cycles elapsed")
	}
}

func TestDivergence(t *testing.T) {
	// out[i] = (i % 2 == 0) ? 100+i : 200+i, with a divergent branch.
	src := `
.kernel div
	S2R R0, %gtid
	LDC R1, c[0]
	AND R2, R0, 1
	ISETP.EQ P0, R2, 0
@!P0	BRA odd
	IADD R3, R0, 100
	BRA join
odd:
	IADD R3, R0, 200
join:
	SHL R4, R0, 2
	IADD R5, R1, R4
	STG [R5], R3
	EXIT
`
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	n := 64
	dout, _ := g.Malloc(uint32(4 * n))
	if _, err := g.Launch(p, Dim1(1), Dim1(n), dout); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*n)
	g.MemcpyDtoH(out, dout)
	for i, v := range bytesToU32s(out) {
		want := uint32(i + 100)
		if i%2 == 1 {
			want = uint32(i + 200)
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestLoopKernel(t *testing.T) {
	// out[i] = sum of 0..i (loop with data-dependent trip count: divergence
	// on loop exit).
	src := `
.kernel tri
	S2R R0, %gtid
	LDC R1, c[0]
	MOV R2, 0
	MOV R3, 0
top:
	ISETP.GT P0, R3, R0
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
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	n := 96
	dout, _ := g.Malloc(uint32(4 * n))
	if _, err := g.Launch(p, Dim1(3), Dim1(32), dout); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*n)
	g.MemcpyDtoH(out, dout)
	for i, v := range bytesToU32s(out) {
		if want := uint32(i * (i + 1) / 2); v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestSharedMemoryReduction(t *testing.T) {
	// Block-wide sum via shared memory and barriers: out[cta] = sum of the
	// 64 inputs of that block.
	src := `
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
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	nCTA, ctaSize := 4, 64
	n := nCTA * ctaSize
	in := make([]uint32, n)
	var want []uint32
	for c := 0; c < nCTA; c++ {
		sum := uint32(0)
		for i := 0; i < ctaSize; i++ {
			in[c*ctaSize+i] = uint32(c*1000 + i)
			sum += uint32(c*1000 + i)
		}
		want = append(want, sum)
	}
	din, _ := g.Malloc(uint32(4 * n))
	dout, _ := g.Malloc(uint32(4 * nCTA))
	g.MemcpyHtoD(din, u32sToBytes(in))
	if _, err := g.Launch(p, Dim1(nCTA), Dim1(ctaSize), din, dout); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*nCTA)
	g.MemcpyDtoH(out, dout)
	for i, v := range bytesToU32s(out) {
		if v != want[i] {
			t.Fatalf("block %d sum = %d, want %d", i, v, want[i])
		}
	}
}

func TestLocalMemory(t *testing.T) {
	// Each thread writes a pattern to its local memory and reads it back
	// reversed: out[i] = local roundtrip value.
	src := `
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
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	n := 64
	dout, _ := g.Malloc(uint32(4 * n))
	if _, err := g.Launch(p, Dim1(2), Dim1(32), dout); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*n)
	g.MemcpyDtoH(out, dout)
	for i, v := range bytesToU32s(out) {
		// sum_{k=0..7} (i*8+k) = 8i*8 + 28
		if want := uint32(i*64 + 28); v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestTextureLoad(t *testing.T) {
	src := `
.kernel tex
	S2R R0, %gtid
	LDC R1, c[0]
	LDC R2, c[4]
	SHL R3, R0, 2
	IADD R4, R1, R3
	TLD R5, [R4]
	IADD R5, R5, 7
	IADD R6, R2, R3
	STG [R6], R5
	EXIT
`
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	n := 64
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(i * i)
	}
	din, _ := g.Malloc(uint32(4 * n))
	dout, _ := g.Malloc(uint32(4 * n))
	g.MemcpyHtoD(din, u32sToBytes(in))
	if _, err := g.Launch(p, Dim1(2), Dim1(32), din, dout); err != nil {
		t.Fatal(err)
	}
	if g.CoreL1T(0).Stats().Accesses == 0 {
		t.Error("texture loads did not touch the L1 texture cache")
	}
	out := make([]byte, 4*n)
	g.MemcpyDtoH(out, dout)
	for i, v := range bytesToU32s(out) {
		if want := uint32(i*i + 7); v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestCrashOnWildStore(t *testing.T) {
	src := `
.kernel wild
	MOV R1, 0x40
	STG [R1], R1
	EXIT
`
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	_, err := g.Launch(p, Dim1(1), Dim1(32))
	if err == nil {
		t.Fatal("wild store did not crash")
	}
	if _, ok := err.(*MemViolation); !ok {
		t.Fatalf("error type %T, want *MemViolation", err)
	}
}

func TestCrashOnMisalignedLoad(t *testing.T) {
	src := `
.kernel misalign
	LDC R1, c[0]
	IADD R1, R1, 2
	LDG R2, [R1]
	EXIT
`
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	d, _ := g.Malloc(64)
	_, err := g.Launch(p, Dim1(1), Dim1(32), d)
	if err == nil {
		t.Fatal("misaligned load did not crash")
	}
}

// TestViolationLowestCoreWins pins which of several same-cycle violations a
// launch reports: every CTA performs a wild store whose address encodes its
// CTA id, all on the same cycle, one CTA per SM. Breadth-first placement puts
// CTA 0 on core 0, so the reported violation must be CTA 0's address.
func TestViolationLowestCoreWins(t *testing.T) {
	src := `
.kernel wildcta
	S2R R0, %ctaid.x
	SHL R1, R0, 2
	IADD R1, R1, 64
	STG [R1], R0
	EXIT
`
	g := newTestGPU(t)
	_, err := g.Launch(mustAssemble(t, src), Dim1(4), Dim1(32))
	if err == nil {
		t.Fatal("wild store did not crash")
	}
	mv, ok := err.(*MemViolation)
	if !ok {
		t.Fatalf("error type %T, want *MemViolation", err)
	}
	// Any other address means a higher core's same-cycle violation won.
	if mv.Addr != 64 {
		t.Fatalf("violation addr %#x, want 0x40 (CTA 0 on core 0)", mv.Addr)
	}
}

func TestTimeout(t *testing.T) {
	src := `
.kernel spin
top:
	BRA top
	EXIT
`
	g := newTestGPU(t)
	g.CycleLimit = 2000
	p := mustAssemble(t, src)
	_, err := g.Launch(p, Dim1(1), Dim1(32))
	if err == nil {
		t.Fatal("infinite loop did not time out")
	}
	if _, ok := err.(*ErrTimeout); !ok {
		t.Fatalf("error type %T, want *ErrTimeout", err)
	}
}

func TestKernelStatsCollected(t *testing.T) {
	g := newTestGPU(t)
	runVecadd(t, g, 256)
	ks := g.KernelStats()["vecadd"]
	if ks == nil {
		t.Fatal("no stats for vecadd")
	}
	if ks.Invocations != 1 || len(ks.Windows) != 1 {
		t.Errorf("invocations = %d windows = %d", ks.Invocations, len(ks.Windows))
	}
	if ks.TotalCycles == 0 || ks.Windows[0].Width() != ks.TotalCycles {
		t.Errorf("cycles inconsistent: %d vs window %d", ks.TotalCycles, ks.Windows[0].Width())
	}
	if ks.Occupancy <= 0 || ks.Occupancy > 1 {
		t.Errorf("occupancy = %g outside (0,1]", ks.Occupancy)
	}
	if ks.MeanThreadsPerSM <= 0 || ks.MeanCTAsPerSM <= 0 {
		t.Errorf("means not collected: threads %g ctas %g", ks.MeanThreadsPerSM, ks.MeanCTAsPerSM)
	}
	if ks.RegsPerThread == 0 || ks.Instructions == 0 {
		t.Errorf("static demands missing: %+v", ks)
	}
	if len(ks.UsedCores) == 0 {
		t.Error("no cores recorded")
	}
}

func TestMultipleInvocationsAccumulate(t *testing.T) {
	g := newTestGPU(t)
	runVecadd(t, g, 64)
	runVecadd(t, g, 64)
	ks := g.KernelStats()["vecadd"]
	if ks.Invocations != 2 || len(ks.Windows) != 2 {
		t.Errorf("invocations = %d windows = %d, want 2", ks.Invocations, len(ks.Windows))
	}
	if ks.Windows[1].Start < ks.Windows[0].End {
		t.Error("windows overlap")
	}
	if len(g.Launches()) != 2 {
		t.Errorf("launch records = %d", len(g.Launches()))
	}
}

func TestMoreCTAsThanCapacity(t *testing.T) {
	// 64 CTAs of 64 threads on 4 SMs x 256 threads: forces waves of CTA
	// scheduling.
	g := newTestGPU(t)
	res := runVecadd(t, g, 64*64)
	for i, v := range res {
		if want := float32(3 * i); v != want {
			t.Fatalf("c[%d] = %g, want %g", i, v, want)
		}
	}
}

func TestFloatKernel(t *testing.T) {
	// out[i] = sqrt(in[i]) * 0.5 + 1.0 exercises SFU and FFMA.
	src := `
.kernel fk
	S2R R0, %gtid
	LDC R1, c[0]
	LDC R2, c[4]
	SHL R3, R0, 2
	IADD R4, R1, R3
	LDG R5, [R4]
	FSQRT R6, R5
	MOV R7, 0.5f
	MOV R8, 1.0f
	FFMA R9, R6, R7, R8
	IADD R10, R2, R3
	STG [R10], R9
	EXIT
`
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	n := 32
	in := make([]uint32, n)
	for i := range in {
		in[i] = isa.F32Bits(float32(i * i))
	}
	din, _ := g.Malloc(uint32(4 * n))
	dout, _ := g.Malloc(uint32(4 * n))
	g.MemcpyHtoD(din, u32sToBytes(in))
	if _, err := g.Launch(p, Dim1(1), Dim1(n), din, dout); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*n)
	g.MemcpyDtoH(out, dout)
	for i, w := range bytesToU32s(out) {
		got := isa.F32(w)
		want := float32(i)*0.5 + 1.0
		if math.Abs(float64(got-want)) > 1e-5 {
			t.Fatalf("out[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestGridDim2(t *testing.T) {
	// 2-D grid and block: out[y*W+x] = ctaid.y*1000 + tid.y*100 + ctaid.x*10 + tid.x
	src := `
.kernel twod
	S2R R0, %tid.x
	S2R R1, %tid.y
	S2R R2, %ctaid.x
	S2R R3, %ctaid.y
	S2R R4, %gtid
	LDC R5, c[0]
	IMUL R6, R3, 1000
	IMAD R6, R1, 100, R6
	IMAD R6, R2, 10, R6
	IADD R6, R6, R0
	SHL R7, R4, 2
	IADD R7, R5, R7
	STG [R7], R6
	EXIT
`
	g := newTestGPU(t)
	p := mustAssemble(t, src)
	grid, block := Dim2(2, 2), Dim2(4, 8)
	n := grid.Count() * block.Count()
	dout, _ := g.Malloc(uint32(4 * n))
	if _, err := g.Launch(p, grid, block, dout); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*n)
	g.MemcpyDtoH(out, dout)
	vals := bytesToU32s(out)
	// Check a specific thread: cta (1,1), tid (3,5).
	ctaLinear := 1*2 + 1
	tLinear := 5*4 + 3
	gtid := ctaLinear*block.Count() + tLinear
	if want := uint32(1*1000 + 5*100 + 1*10 + 3); vals[gtid] != want {
		t.Errorf("2D indexing: got %d, want %d", vals[gtid], want)
	}
}

func TestLaunchValidation(t *testing.T) {
	g := newTestGPU(t)
	p := mustAssemble(t, ".kernel k\nEXIT")
	if _, err := g.Launch(p, Dim1(1), Dim1(512)); err == nil {
		t.Error("block larger than SM capacity accepted")
	}
	big := mustAssemble(t, ".kernel k2\n.smem 999999\nEXIT")
	if _, err := g.Launch(big, Dim1(1), Dim1(32)); err == nil {
		t.Error("oversized shared memory accepted")
	}
}

func TestWarpOccupancyBounds(t *testing.T) {
	g := newTestGPU(t)
	runVecadd(t, g, 1024)
	ks := g.KernelStats()["vecadd"]
	if ks.Occupancy <= 0 || ks.Occupancy > 1.0 {
		t.Errorf("occupancy %g out of bounds", ks.Occupancy)
	}
}

// TestPlacementHoldsWarpSlots launches 65-thread blocks on QuadroGV100. A
// block takes three warps for its 65 threads, so the thread limit alone (31
// blocks in 2,048 threads) would put 93 warps into an SM's 64 warp slots.
// No core may hold more warps than it has slots at the end of any cycle
// (checkLiveState holds the bound too), the slots must fill as far as whole
// blocks fit (21 blocks, 63 warps), and Occupancy, the share of the slots
// live warps fill, stays at most 1.
func TestPlacementHoldsWarpSlots(t *testing.T) {
	cfg := config.QuadroGV100()
	cfg.SMs = 1 // the per-SM limits are the preset's
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Enough work that every resident warp is still live most cycles.
	p := mustAssemble(t, ".kernel slots\nMOV R0, 7\n"+strings.Repeat("IADD R0, R0, R0\n", 32)+"EXIT")
	CheckLiveStateEveryCycle(g, func(err error) { t.Error(err) })
	check, most := g.cycleCheck, 0
	g.cycleCheck = func() {
		check()
		for _, c := range g.cores {
			most = max(most, len(c.warps))
		}
	}
	if _, err := g.Launch(p, Dim1(32*cfg.SMs), Dim1(65)); err != nil {
		t.Fatal(err)
	}
	slots := cfg.MaxWarpsPerSM()
	if want := slots / 3 * 3; most != want {
		t.Errorf("at most %d warps resident on a core, want %d (%d slots)", most, want, slots)
	}
	if ks := g.KernelStats()["slots"]; ks.Occupancy <= 0 || ks.Occupancy > 1 {
		t.Errorf("occupancy %g out of (0, 1]", ks.Occupancy)
	}
}

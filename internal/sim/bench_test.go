package sim

import (
	"math/rand"
	"testing"
	"time"

	"gpufi/internal/asm"
	"gpufi/internal/config"
	"gpufi/internal/isa"
)

// fullRTX2060 returns an RTX 2060 mid-launch with every SM at its thread
// limit (30 x 1024 live threads) and every warp stalled far in the future.
func fullRTX2060(b *testing.B) *GPU {
	b.Helper()
	cfg := config.RTX2060()
	g, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, err := asm.Assemble(vecaddAsm)
	if err != nil {
		b.Fatal(err)
	}
	const block = 256
	grid := cfg.SMs * cfg.MaxThreadsPerSM / block
	if _, err := g.launchSetup(p, Dim1(grid), Dim1(block), []uint32{0, 0, 0, 0}); err != nil {
		b.Fatal(err)
	}
	g.cycle = 1000
	for _, c := range g.cores {
		if c.liveThreads != cfg.MaxThreadsPerSM {
			b.Fatalf("core %d holds %d threads, want %d", c.id, c.liveThreads, cfg.MaxThreadsPerSM)
		}
		for _, w := range c.warps {
			w.busyUntil = 1 << 40
		}
	}
	return g
}

// BenchmarkTickStalledCore times the per-cycle visit of a core whose 32
// resident warps all wait on memory.
func BenchmarkTickStalledCore(b *testing.B) {
	g := fullRTX2060(b)
	c := g.cores[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.tick() {
			b.Fatal("a stalled core issued")
		}
	}
}

var benchSink int

// BenchmarkInjectRegFile times a register-file injection on a full device:
// pick is the site selection alone (count, one draw, walk) and must report
// 0 allocs/op; apply is the whole applyFault, record and detail included.
func BenchmarkInjectRegFile(b *testing.B) {
	g := fullRTX2060(b)
	b.Run("pick", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, lane := g.liveThreadAt(rng.Intn(g.liveThreadCount()))
			benchSink += w.slot + lane
		}
	})
	b.Run("apply", func(b *testing.B) {
		spec := &FaultSpec{Structure: StructRegFile, BitPositions: []int64{3*32 + 7}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec.Seed = int64(i)
			g.faultRecs = g.faultRecs[:0]
			g.applyFault(spec)
		}
	})
}

// The benchmarks below reach the simulator only through calls that exist
// on both sides of the warp-major state change (launchSetup, step, execute,
// guardMask, tryPlaceCTA, reset, restore, materializeWarp), and set
// registers up by executing a prologue instead of writing them, so this
// file runs unmodified against the parent commit.

// warpInstrAsm builds a one-warp-per-CTA kernel: a prologue leaving
//
//	R0 gtid, R1 the buffer parameter, R2 R1+4*gtid (coalesced), R3 R1
//	(uniform), R4 R1+128*gtid (a line per lane), R5 (4*gtid)&255 (shared),
//	R6..R9 integer and float operands, P1 = odd lanes
//
// then body, then EXIT.
func warpInstrAsm(body string) string {
	return `
.kernel winstr
.smem 256
	S2R   R0, %gtid
	LDC   R1, c[0]
	SHL   R2, R0, 2
	AND   R5, R2, 255
	IADD  R2, R1, R2
	MOV   R3, R1
	SHL   R4, R0, 7
	IADD  R4, R1, R4
	IADD  R6, R0, 3
	IMUL  R7, R0, R6
	I2F   R8, R6
	I2F   R9, R7
	AND   R10, R0, 1
	ISETP.EQ P1, R10, 1
` + body + `
	EXIT
`
}

// benchWarp launches warpInstrAsm(body) on a test GPU, steps warp 0 of
// core 0 through the prologue and returns it with the body's instructions.
func benchWarp(b *testing.B, body string) (*core, *warp, []isa.Instr) {
	b.Helper()
	g, err := New(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	p, err := asm.Assemble(warpInstrAsm(body))
	if err != nil {
		b.Fatal(err)
	}
	buf, err := g.Malloc(32 * 128)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.launchSetup(p, Dim1(1), Dim1(32), []uint32{buf}); err != nil {
		b.Fatal(err)
	}
	const prologue = 14
	c := g.cores[0]
	w := c.warps[0]
	for pc := 0; pc < prologue; pc++ {
		g.cycle++
		c.step(w)
		if c.viol != nil {
			b.Fatal(c.viol)
		}
	}
	if got := c.pcOf(w); got != prologue {
		b.Fatalf("warp at pc %d after the prologue, want %d", got, prologue)
	}
	return c, w, p.Instrs[prologue : len(p.Instrs)-1]
}

// BenchmarkWarpInstr times core.execute on one resident warp, cache lines
// resident after the first iteration: what one issued warp instruction
// costs the host once it is fetched and scheduled.
func BenchmarkWarpInstr(b *testing.B) {
	const aluMix = `
	IADD  R11, R6, R7
	IMUL  R12, R6, R7
	FFMA  R13, R8, R9, R8
	SHL   R14, R7, 2
	AND   R15, R6, R7
	FADD  R16, R8, R9
`
	const sfuMix = `
	FSQRT R11, R8
	FRCP  R12, R9
	FEXP  R13, R8
	FLOG  R14, R9
	FDIV  R15, R8, R9
	IDIV  R16, R7, R6
`
	for _, bc := range []struct {
		name, body string
		mask       uint32
	}{
		{"alu-full", aluMix, 0xFFFFFFFF},
		{"alu-partial", aluMix, 0x0F0F3355},
		{"alu-empty", aluMix, 0},
		{"sfu-full", sfuMix, 0xFFFFFFFF},
		{"sfu-partial", sfuMix, 0x0F0F3355},
		{"setp-guarded", "@P1\tISETP.LT P0, R6, R7\n@!P1\tFSETP.GE P2, R8, R9", 0xFFFFFFFF},
		{"ld-coalesced", "LDG R11, [R2]", 0xFFFFFFFF},
		{"ld-uniform", "LDG R11, [R3]", 0xFFFFFFFF},
		{"ld-scattered", "LDG R11, [R4]", 0xFFFFFFFF},
		{"st-global", "STG [R2], R6", 0xFFFFFFFF},
		{"lds", "LDS R11, [R5]", 0xFFFFFFFF},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, w, body := benchWarp(b, bc.body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := &body[i%len(body)]
				benchSink += c.execute(w, in, bc.mask&w.guardMask(in, bc.mask))
			}
			if c.viol != nil {
				b.Fatal(c.viol)
			}
		})
	}
}

// BenchmarkPlaceCTA times placing one 256-thread, 16-register CTA on an
// empty SM; allocs/op is what one placement asks of the allocator.
func BenchmarkPlaceCTA(b *testing.B) {
	g, err := New(config.RTX2060())
	if err != nil {
		b.Fatal(err)
	}
	p, err := asm.Assemble(".kernel place\n.reg 16\n\tEXIT\n")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.launchSetup(p, Dim1(1), Dim1(256), nil); err != nil {
		b.Fatal(err)
	}
	c := g.cores[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.tryPlaceCTA(0) {
			b.Fatal("placement refused")
		}
		c.reset()
	}
}

// BenchmarkMaterializeWarp times the first-write privatisation of every
// resident warp of a copy-on-write vessel (256 warps of the full-device
// vecadd launch, 9 registers per thread), per warp.
func BenchmarkMaterializeWarp(b *testing.B) {
	g := fullRTX2060(b)
	snap := g.Snapshot()
	vessel := NewFork(snap)
	vessel.restore(snap)
	warps := 0
	b.ResetTimer()
	for warps < b.N {
		b.StopTimer()
		vessel.Refork(snap)
		vessel.restore(snap)
		b.StartTimer()
		for _, c := range vessel.cores[:8] {
			for _, w := range c.warps {
				c.materializeWarp(w)
				warps++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(warps), "ns/warp")
}

// borrowDevice is how a campaign gets a device that starts from nothing, and
// releaseDevice how it gives it back. On a commit without the device pool
// that is New and nothing; where there is a pool, pool_test.go points
// borrowDevice at it. This file alone therefore still runs on the parent.
var borrowDevice = New

func releaseDevice(g *GPU) {
	if r, ok := any(g).(interface{ Release() }); ok {
		r.Release()
	}
}

// BenchmarkResetDevice times getting an RTX 2060 that starts from nothing
// when the previous owner left 2,048 L2 lines, 32 lines in every L1T and a
// megabyte of device memory behind: borrow-ns/op is the borrow alone, ns/op
// also counts dirtying the device again and releasing it.
func BenchmarkResetDevice(b *testing.B) {
	cfg := config.RTX2060()
	line := uint32(cfg.L2.LineBytes)
	var borrowing time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		g, err := borrowDevice(cfg)
		borrowing += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if g.l2.ValidLines() != 0 || g.mem.Size() != 0 {
			b.Fatalf("borrowed device holds %d L2 lines and %d bytes", g.l2.ValidLines(), g.mem.Size())
		}
		base, err := g.Malloc(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		for l := uint32(0); l < 2048; l++ {
			g.l2.AccessRead(base + l*line)
		}
		for _, c := range g.cores {
			for l := uint32(0); l < 32; l++ {
				c.l1t.AccessRead(base + l*uint32(cfg.L1T.LineBytes))
			}
		}
		releaseDevice(g)
	}
	b.ReportMetric(float64(borrowing.Nanoseconds())/float64(b.N), "borrow-ns/op")
}

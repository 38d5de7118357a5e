package sim

import (
	"math/rand"
	"testing"

	"gpufi/internal/asm"
	"gpufi/internal/config"
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

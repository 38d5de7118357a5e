package sim_test

import (
	"errors"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// BenchmarkAdoptDevice times what stands between a campaign and a usable
// fork vessel: NewFork plus its first restore, from a snapshot at the first
// cycle of BP (empty: nothing resident yet) and from one late in its last
// kernel (bp-late: the campaign-late point). With the device pool the vessel
// of the previous iteration is released first, so every restore after the
// first adopts parked storage; without it (the file runs on the parent commit
// unmodified: Release is looked up, not named) every iteration builds and
// fills a device.
func BenchmarkAdoptDevice(b *testing.B) {
	app, err := bench.ByName("BP")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.RTX2060()
	gold, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := app.Run(gold); err != nil {
		b.Fatal(err)
	}
	launches := gold.Launches()
	last := launches[len(launches)-1]
	for _, bc := range []struct {
		name  string
		cycle uint64
	}{
		{"empty", launches[0].StartCycle + 1},
		{"bp-late", last.StartCycle + 9*last.Cycles/10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			g.EnableRecording()
			g.SnapshotAt([]uint64{bc.cycle}, func(s *sim.Snapshot) error {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v := sim.NewFork(s)
					v.Restore(s)
					if r, ok := any(v).(interface{ Release() }); ok {
						r.Release()
					}
				}
				b.StopTimer()
				return sim.ErrReplayStop
			})
			if _, err := app.Run(g); !errors.Is(err, sim.ErrReplayStop) {
				b.Fatalf("prefix run ended with %v before reaching cycle %d", err, bc.cycle)
			}
		})
	}
}

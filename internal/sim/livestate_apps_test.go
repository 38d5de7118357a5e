package sim_test

import (
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// TestLiveStateInvariantsOnAllKernels runs the twelve applications on both
// presets with the per-cycle live-state check installed (readyAt never past
// the true next-ready cycle, the live-warp and live-thread counters equal to
// their scans, every warp's exited flag equal to the unguarded stack/lane
// check), and requires the checked run to take exactly the cycles and warp
// instructions of an unchecked one.
func TestLiveStateInvariantsOnAllKernels(t *testing.T) {
	for _, preset := range []func() *config.GPU{config.RTX2060, config.GTXTitan} {
		cfg := preset()
		for _, name := range bench.Names() {
			t.Run(cfg.Name+"/"+name, func(t *testing.T) {
				run := func(checked bool) []sim.LaunchResult {
					t.Helper()
					app, err := bench.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					g, err := sim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if checked {
						sim.CheckLiveStateEveryCycle(g, func(err error) { t.Error(err) })
					}
					if _, err := app.Run(g); err != nil {
						t.Fatal(err)
					}
					return g.Launches()
				}
				want, got := run(false), run(true)
				if len(got) != len(want) {
					t.Fatalf("%d launches, unchecked run made %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("launch %d: %+v, unchecked run %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

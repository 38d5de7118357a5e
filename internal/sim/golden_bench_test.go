package sim_test

import (
	"runtime"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// goldenScale4 is what each application takes at scale 4 on an RTX 2060:
// simulated cycles and warp instructions, the values perfledger's golden-12
// workload pins.
var goldenScale4 = map[string]struct {
	cycles uint64
	winstr int64
}{
	"HS": {9725, 301056}, "KM": {10574, 121322}, "SRAD1": {20203, 315648},
	"SRAD2": {19910, 411264}, "LUD": {333654, 656556}, "BFS": {64321, 64199},
	"PATHF": {10667, 17696}, "NW": {829083, 61548}, "GE": {406058, 817836},
	"BP": {9701, 14912}, "VA": {1690, 8192}, "SP": {4903, 24288},
}

// BenchmarkGoldenApps is one pass of the ledger's golden-12 workload per
// iteration: the twelve applications at scale 4, each on a new RTX 2060
// device, fault-free. It fails if an application's output leaves its CPU
// reference or its cycles or warp instructions leave the pinned values,
// and reports simulated warp instructions per second of the pass.
func BenchmarkGoldenApps(b *testing.B) {
	apps := bench.AllScale(4)
	cfg := config.RTX2060()
	var kinstr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, app := range apps {
			g, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// As the ledger does: collect the previous device before the run.
			runtime.GC()
			out, err := app.Run(g)
			if err != nil {
				b.Fatalf("%s: %v", app.Name, err)
			}
			if !app.RefOK(out) {
				b.Fatalf("%s: output does not match its CPU reference", app.Name)
			}
			var winstr int64
			for _, ks := range g.KernelStats() {
				winstr += ks.Instructions
			}
			if want := goldenScale4[app.Name]; g.Cycle() != want.cycles || winstr != want.winstr {
				b.Fatalf("%s: %d cycles and %d warp instructions, want %d and %d",
					app.Name, g.Cycle(), winstr, want.cycles, want.winstr)
			}
			kinstr += float64(winstr) / 1e3
		}
	}
	b.ReportMetric(kinstr/b.Elapsed().Seconds(), "kinstr/s")
}

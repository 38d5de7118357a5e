// Benchmarks regenerating every table and figure of the paper's
// evaluation (one testing.B target per artifact). Each iteration runs a
// compact version of the artifact's campaign matrix and reports the same
// rows/series the paper does; the gpufi-figures command runs the full-size
// version. Run with:
//
//	go test -bench=. -benchmem
package gpufi_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gpufi"
)

// benchRuns is the per-point injection count for bench iterations —
// deliberately small; scale with gpufi-figures -n for full campaigns.
const benchRuns = 15

// benchApps is a representative subset keeping bench runtime sane; the
// full 12-benchmark sweep runs through cmd/gpufi-figures.
var benchApps = []string{"VA", "SP", "BFS", "HS"}

func evalOne(b *testing.B, appName, gpuName string, bits int) *gpufi.AppEval {
	b.Helper()
	app, err := gpufi.AppByName(appName)
	if err != nil {
		b.Fatal(err)
	}
	gpu, err := gpufi.CardByName(gpuName)
	if err != nil {
		b.Fatal(err)
	}
	eval, err := gpufi.Evaluate(nil, app, gpu, gpufi.EvalConfig{Runs: benchRuns, Bits: bits, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return eval
}

// BenchmarkTableI_MemorySizes regenerates Table I (derived sizes of every
// on-chip structure, including 57-bit tags, for the three cards).
func BenchmarkTableI_MemorySizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, g := range gpufi.Cards() {
			total := g.RegFileBits() + g.SmemBits() + g.L1DBits() + g.L1TBits() +
				g.L1IBits() + g.L1CBits() + g.L2Bits()
			if total <= 0 {
				b.Fatal("empty chip")
			}
			if i == 0 {
				b.Logf("Table I %s: RF=%.2fMB smem=%.2fMB L1D=%.2fMB L1T=%.2fMB L2=%.2fMB",
					g.Name, mb(g.RegFileBits()), mb(g.SmemBits()), mb(g.L1DBits()),
					mb(g.L1TBits()), mb(g.L2Bits()))
			}
		}
	}
}

func mb(bits int64) float64 { return float64(bits) / 8 / 1024 / 1024 }

// runPoint runs one campaign point against an already computed profile.
func runPoint(tb testing.TB, prof *gpufi.AppProfile, opts ...gpufi.CampaignOption) *gpufi.CampaignResult {
	tb.Helper()
	res, err := gpufi.NewCampaign(append(opts, gpufi.WithProfile(prof))...).Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkTableII_MemorySpaces verifies and times the memory-space
// routing of Table II: one app touching every space runs end to end.
func BenchmarkTableII_MemorySpaces(b *testing.B) {
	src := `
.kernel spaces
.smem 128
.local 16
	S2R R0, %tid.x
	SHL R1, R0, 2
	LDC R2, c[0]
	IADD R3, R2, R1
	LDG R4, [R3]       // global -> L1D
	TLD R5, [R3]       // texture -> L1T
	STS [R1], R4       // shared
	BAR
	LDS R6, [R1]
	STL [0], R6        // local -> L1D writeback
	LDL R7, [0]
	IADD R7, R7, R5
	STG [R3], R7
	EXIT
`
	prog, err := gpufi.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := gpufi.NewDevice(gpufi.RTX2060())
		if err != nil {
			b.Fatal(err)
		}
		d, _ := dev.Malloc(4 * 32)
		if err := dev.MemcpyHtoD(d, make([]byte, 4*32)); err != nil {
			b.Fatal(err)
		}
		if _, err := dev.Launch(prog, gpufi.Dim1(1), gpufi.Dim1(32), d); err != nil {
			b.Fatal(err)
		}
		if dev.CoreL1T(0).Stats().Accesses == 0 || dev.CoreL1D(0).Stats().Accesses == 0 {
			b.Fatal("memory spaces not routed through their caches")
		}
	}
}

// BenchmarkTableIV_Targets regenerates Table IV: one injection campaign
// per supported hardware structure.
func BenchmarkTableIV_Targets(b *testing.B) {
	app, _ := gpufi.AppByName("SP")
	gpu := gpufi.RTX2060()
	prof, err := gpufi.Profile(nil, app, gpu)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range gpufi.Structures() {
			res := runPoint(b, prof, gpufi.WithTarget(app, gpu, "sp_dot", st),
				gpufi.WithRuns(benchRuns), gpufi.WithSeed(int64(i+1)))
			if i == 0 {
				b.Logf("Table IV %s: %+v", st, res.Counts)
			}
		}
	}
}

// BenchmarkTableV_Params regenerates Table V from the three presets
// (validated parse/serialize round trip included).
func BenchmarkTableV_Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, g := range gpufi.Cards() {
			if err := g.Validate(); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("Table V %s: SMs=%d warps/SM=%d regs/SM=%d smem/SM=%dKB %dnm",
					g.Name, g.SMs, g.MaxWarpsPerSM(), g.RegistersPerSM, g.SmemPerSM/1024, g.ProcessNm)
			}
		}
	}
}

// BenchmarkFig1_RegisterFileBreakdown regenerates Fig. 1: the single-bit
// register-file fault-effect breakdown per card per benchmark.
func BenchmarkFig1_RegisterFileBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, gpu := range []string{"RTX2060", "GTXTitan"} {
			for _, name := range benchApps {
				e := evalOne(b, name, gpu, 1)
				bd := gpufi.RegFileClassBreakdown(e)
				if i == 0 {
					b.Logf("Fig1 %s/%s: SDC=%.4f Crash=%.4f Timeout=%.4f",
						gpu, name, bd[gpufi.SDC], bd[gpufi.Crash], bd[gpufi.Timeout])
				}
			}
		}
	}
}

// BenchmarkFig2_StructureContribution regenerates Fig. 2: per-structure
// shares of the total AVF for SRAD2 and HS.
func BenchmarkFig2_StructureContribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"SRAD2", "HS"} {
			e := evalOne(b, name, "RTX2060", 1)
			shares := gpufi.StructBreakdown(e)
			if i == 0 {
				b.Logf("Fig2 %s: %v", name, shares)
			}
		}
	}
}

// BenchmarkFig3_ChipAVF regenerates Fig. 3: wAVF (Eq. 3) plus occupancy
// per benchmark per card.
func BenchmarkFig3_ChipAVF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, gpu := range []string{"RTX2060", "QuadroGV100", "GTXTitan"} {
			for _, name := range benchApps[:2] {
				e := evalOne(b, name, gpu, 1)
				if e.WAVF < 0 || e.WAVF > 1 || e.Occupancy <= 0 {
					b.Fatalf("implausible eval: %+v", e)
				}
				if i == 0 {
					b.Logf("Fig3 %s/%s: wAVF=%.4f occ=%.2f", gpu, name, e.WAVF, e.Occupancy)
				}
			}
		}
	}
}

// BenchmarkFig4_PerformanceFaults regenerates Fig. 4: Performance effects
// as a share of masked register-file faults on the RTX 2060.
func BenchmarkFig4_PerformanceFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range benchApps {
			e := evalOne(b, name, "RTX2060", 1)
			s := gpufi.PerformanceShare(e)
			if s < 0 || s > 1 {
				b.Fatalf("share out of range: %g", s)
			}
			if i == 0 {
				b.Logf("Fig4 %s: perf share %.2f%%", name, s*100)
			}
		}
	}
}

// BenchmarkFig5_TripleBitBreakdown regenerates Fig. 5: the triple-bit
// register-file breakdown on the RTX 2060.
func BenchmarkFig5_TripleBitBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range benchApps {
			e := evalOne(b, name, "RTX2060", 3)
			bd := gpufi.RegFileClassBreakdown(e)
			if i == 0 {
				b.Logf("Fig5 %s: SDC=%.4f Crash=%.4f Timeout=%.4f",
					name, bd[gpufi.SDC], bd[gpufi.Crash], bd[gpufi.Timeout])
			}
		}
	}
}

// BenchmarkFig6_SingleVsTriple regenerates Fig. 6: single-bit vs
// triple-bit wAVF on the RTX 2060 (~2x in the paper).
func BenchmarkFig6_SingleVsTriple(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range benchApps {
			e1 := evalOne(b, name, "RTX2060", 1)
			e3 := evalOne(b, name, "RTX2060", 3)
			if i == 0 {
				ratio := 0.0
				if e1.WAVF > 0 {
					ratio = e3.WAVF / e1.WAVF
				}
				b.Logf("Fig6 %s: 1-bit=%.4f 3-bit=%.4f ratio=%.2fx", name, e1.WAVF, e3.WAVF, ratio)
			}
		}
	}
}

// BenchmarkFig7_FITRates regenerates Fig. 7: whole-chip FIT rates per card
// per benchmark (GTX Titan far above the 12nm cards).
func BenchmarkFig7_FITRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range benchApps[:2] {
			var fits []float64
			for _, gpu := range []string{"RTX2060", "QuadroGV100", "GTXTitan"} {
				e := evalOne(b, name, gpu, 1)
				fits = append(fits, e.FIT)
			}
			if i == 0 {
				b.Logf("Fig7 %s: RTX2060=%.2f GV100=%.2f Titan=%.2f FIT", name, fits[0], fits[1], fits[2])
			}
		}
	}
}

// BenchmarkAblationECC is a protection-tradeoff ablation (beyond the
// paper, which evaluates an unprotected chip): the same register-file
// campaign with and without SEC-DED ECC, single-bit and triple-bit. ECC
// must eliminate single-bit failures entirely and convert part of the
// multi-bit failures into detected aborts.
func BenchmarkAblationECC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ecc := range []bool{false, true} {
			for _, bits := range []int{1, 3} {
				app, _ := gpufi.AppByName("SP")
				gpu := gpufi.RTX2060()
				gpu.ECC = ecc
				prof, err := gpufi.Profile(nil, app, gpu)
				if err != nil {
					b.Fatal(err)
				}
				res := runPoint(b, prof, gpufi.WithTarget(app, gpu, "sp_dot", gpufi.StructRegFile),
					gpufi.WithRuns(40), gpufi.WithBits(bits), gpufi.WithSeed(5))
				if ecc && bits == 1 && res.Counts.Failures() != 0 {
					b.Fatalf("ECC failed to correct single-bit faults: %+v", res.Counts)
				}
				if i == 0 {
					b.Logf("Ablation ECC=%v bits=%d: %+v (FR %.3f)",
						ecc, bits, res.Counts, res.Counts.FailureRatio())
				}
			}
		}
	}
}

// BenchmarkAblationLenientMemory quantifies the strict-vs-lenient memory
// model choice (the source of the paper's near-zero Crash rates): the same
// campaign under both models.
func BenchmarkAblationLenientMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, lenient := range []bool{false, true} {
			app, _ := gpufi.AppByName("KM")
			gpu := gpufi.RTX2060()
			gpu.LenientMemory = lenient
			prof, err := gpufi.Profile(nil, app, gpu)
			if err != nil {
				b.Fatal(err)
			}
			res := runPoint(b, prof, gpufi.WithTarget(app, gpu, "km_assign", gpufi.StructRegFile),
				gpufi.WithRuns(40), gpufi.WithSeed(5))
			if i == 0 {
				b.Logf("Ablation lenient=%v: %+v", lenient, res.Counts)
			}
		}
	}
}

// BenchmarkAblationWarpWide compares thread-granularity register-file
// injections against warp-wide ones (paper Table IV: "every thread of the
// warp will be affected with the same injections"). Warp-wide faults hit
// 32x the state and must fail at least as often.
func BenchmarkAblationWarpWide(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, _ := gpufi.AppByName("SP")
		gpu := gpufi.RTX2060()
		prof, err := gpufi.Profile(nil, app, gpu)
		if err != nil {
			b.Fatal(err)
		}
		var frs [2]float64
		for j, warp := range []bool{false, true} {
			res := runPoint(b, prof, gpufi.WithTarget(app, gpu, "sp_dot", gpufi.StructRegFile),
				gpufi.WithRuns(40), gpufi.WithSeed(5), gpufi.WithWarpWide(warp))
			frs[j] = res.Counts.FailureRatio()
			if i == 0 {
				b.Logf("Ablation warpWide=%v: %+v (FR %.3f)", warp, res.Counts, frs[j])
			}
		}
		if frs[1] < frs[0]-0.15 {
			b.Fatalf("warp-wide injections much less damaging than thread ones: %.3f vs %.3f", frs[1], frs[0])
		}
	}
}

// BenchmarkAblationScheduler compares the GTO and LRR warp schedulers —
// a design-space knob the simulator exposes (GPGPU-Sim ships both).
func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, policy := range []string{"gto", "lrr"} {
			app, _ := gpufi.AppByName("HS")
			gpu := gpufi.RTX2060()
			gpu.Scheduler = policy
			dev, err := gpufi.NewDevice(gpu)
			if err != nil {
				b.Fatal(err)
			}
			out, err := app.Run(dev)
			if err != nil {
				b.Fatal(err)
			}
			if !app.RefOK(out) {
				b.Fatalf("%s scheduler corrupted results", policy)
			}
			if i == 0 {
				b.Logf("Ablation scheduler=%s: %d cycles", policy, dev.Cycle())
			}
		}
	}
}

// BenchmarkSimulatorThroughput times raw fault-free simulation of the
// vector-add workload (cycles simulated per wall second).
func BenchmarkSimulatorThroughput(b *testing.B) {
	app, _ := gpufi.AppByName("VA")
	gpu := gpufi.RTX2060()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := gpufi.NewDevice(gpu)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.Run(dev); err != nil {
			b.Fatal(err)
		}
		cycles += dev.Cycle()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

// BenchmarkCampaignThroughput times a register-file campaign point end to
// end (injections per second drive total campaign cost).
func BenchmarkCampaignThroughput(b *testing.B) {
	app, _ := gpufi.AppByName("VA")
	gpu := gpufi.RTX2060()
	prof, err := gpufi.Profile(nil, app, gpu)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPoint(b, prof, gpufi.WithTarget(app, gpu, "va_add", gpufi.StructRegFile),
			gpufi.WithRuns(10), gpufi.WithSeed(int64(i)))
	}
	b.ReportMetric(10, "injections/op")
}

// TestCampaignAPI exercises the public Campaign surface: functional
// options, validation, progress callbacks, and cancellation with partial
// results.
func TestCampaignAPI(t *testing.T) {
	app, err := gpufi.AppByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	gpu := gpufi.RTX2060()
	if err := gpufi.NewCampaign(gpufi.WithTarget(app, gpu, "nope", gpufi.StructRegFile),
		gpufi.WithRuns(5)).Validate(); err == nil {
		t.Error("Validate accepted an unknown kernel")
	}
	done := 0
	c := gpufi.NewCampaign(
		gpufi.WithTarget(app, gpu, "va_add", gpufi.StructRegFile),
		gpufi.WithRuns(12),
		gpufi.WithSeed(9),
		gpufi.WithWorkers(4),
		gpufi.WithProgress(func(gpufi.Experiment) { done++ }),
	)
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 12 || done != 12 {
		t.Errorf("total=%d progress=%d, want 12/12", res.Counts.Total(), done)
	}
	// Cancelling from the progress callback returns promptly with the
	// finished subset.
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	c2 := gpufi.NewCampaign(
		gpufi.WithTarget(app, gpu, "va_add", gpufi.StructRegFile),
		gpufi.WithRuns(200),
		gpufi.WithSeed(9),
		gpufi.WithWorkers(2),
		gpufi.WithProgress(func(gpufi.Experiment) {
			if seen++; seen == 3 {
				cancel()
			}
		}),
	)
	res2, err := c2.Run(ctx)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res2 == nil || res2.Counts.Total() == 0 || res2.Counts.Total() >= 200 {
		t.Errorf("partial result: %+v", res2)
	}
}

// Example-style smoke check for the facade, kept with the benchmarks so
// `go test` at the repo root exercises the public API.
func TestFacadeSmoke(t *testing.T) {
	if len(gpufi.Apps()) != 12 || len(gpufi.Cards()) != 3 {
		t.Fatal("facade registry wrong")
	}
	if n := gpufi.SampleSize(1e12, 0.99, 0.02); n < 4000 {
		t.Errorf("SampleSize = %d", n)
	}
	app, err := gpufi.AppByName("VA")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := gpufi.Profile(nil, app, gpufi.RTX2060())
	if err != nil {
		t.Fatal(err)
	}
	res := runPoint(t, prof, gpufi.WithTarget(app, gpufi.RTX2060(), "va_add", gpufi.StructRegFile),
		gpufi.WithRuns(8), gpufi.WithSeed(1))
	if res.Counts.Total() != 8 {
		t.Errorf("counts: %+v", res.Counts)
	}
	fmt.Fprintln(discard{}, res.Counts)
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

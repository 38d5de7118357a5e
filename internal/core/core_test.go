package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

func TestStructSizeBits(t *testing.T) {
	g := config.RTX2060()
	if got := StructSizeBits(g, sim.StructRegFile, 16, 0, 0); got != 16*32 {
		t.Errorf("regfile = %d", got)
	}
	if got := StructSizeBits(g, sim.StructShared, 0, 2048, 0); got != 2048*8 {
		t.Errorf("shared = %d", got)
	}
	if got := StructSizeBits(g, sim.StructLocal, 0, 0, 64); got != 64*8 {
		t.Errorf("local = %d", got)
	}
	if got := StructSizeBits(g, sim.StructL1D, 0, 0, 0); got != g.L1D.SizeBits() {
		t.Errorf("l1d = %d", got)
	}
	if got := StructSizeBits(g, sim.StructL2, 0, 0, 0); got != g.L2.SizeBits() {
		t.Errorf("l2 = %d", got)
	}
	titan := config.GTXTitan()
	if got := StructSizeBits(titan, sim.StructL1D, 0, 0, 0); got != 0 {
		t.Errorf("titan l1d = %d, want 0", got)
	}
}

func TestChipSizeBits(t *testing.T) {
	g := config.RTX2060()
	if ChipSizeBits(g, sim.StructRegFile) != g.RegFileBits() {
		t.Error("regfile chip size wrong")
	}
	if ChipSizeBits(g, sim.StructLocal) != 0 {
		t.Error("local memory must have no on-chip size")
	}
}

func TestMaskGenDeterministicAndInRange(t *testing.T) {
	windows := []sim.CycleWindow{{Start: 100, End: 200}, {Start: 500, End: 600}}
	gen, err := NewMaskGen(sim.StructRegFile, windows, 512, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s1 := gen.Spec(i)
		s2 := gen.Spec(i)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("spec %d not deterministic", i)
		}
		inWindow := (s1.Cycle > 100 && s1.Cycle <= 200) || (s1.Cycle > 500 && s1.Cycle <= 600)
		if !inWindow {
			t.Fatalf("spec %d cycle %d outside windows", i, s1.Cycle)
		}
		if len(s1.BitPositions) != 3 {
			t.Fatalf("spec %d has %d bits", i, len(s1.BitPositions))
		}
		seen := map[int64]bool{}
		for _, p := range s1.BitPositions {
			if p < 0 || p >= 512 {
				t.Fatalf("bit %d out of range", p)
			}
			if seen[p] {
				t.Fatalf("duplicate bit %d", p)
			}
			seen[p] = true
		}
	}
	// Different experiments should mostly differ.
	if reflect.DeepEqual(gen.Spec(0), gen.Spec(1)) {
		t.Error("consecutive specs identical")
	}
}

// TestMaskGenReseedMatchesFreshSource: Spec re-seeds one generator per
// call; every field must equal what a generator allocated for that one
// spec draws, in any call order.
func TestMaskGenReseedMatchesFreshSource(t *testing.T) {
	windows := []sim.CycleWindow{{Start: 100, End: 260}, {Start: 500, End: 9000}}
	const seed = 20220522
	gen, err := NewMaskGen(sim.StructL1D, windows, 4096, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	gen.SetCoreMask([]int{2, 5})
	fresh := func(i int) *sim.FaultSpec {
		mix := uint64(seed) ^ uint64(i+1)*0x9E3779B97F4A7C15
		r := rand.New(rand.NewSource(int64(mix)))
		var total uint64
		for _, w := range windows {
			total += w.Width()
		}
		pick := uint64(r.Int63n(int64(total)))
		var cycle uint64
		for _, w := range windows {
			if pick < w.Width() {
				cycle = w.Start + pick + 1
				break
			}
			pick -= w.Width()
		}
		var positions []int64
		seen := map[int64]bool{}
		for len(positions) < 3 {
			if p := r.Int63n(4096); !seen[p] {
				seen[p] = true
				positions = append(positions, p)
			}
		}
		return &sim.FaultSpec{Structure: sim.StructL1D, Cycle: cycle, BitPositions: positions,
			CoreMask: []int{2, 5}, Seed: r.Int63()}
	}
	for n := 0; n < 1000; n++ {
		i := (n * 389) % 1000 // out of order: no draw may leak from one spec into the next
		if got, want := gen.Spec(i), fresh(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %d: re-seeded generator drew %+v, a fresh source %+v", i, got, want)
		}
	}
}

// TestMaskGenSpecAllocations: a spec is the FaultSpec and its position
// slice (plus the core-mask copy where there is a mask) — no per-call map,
// no per-call generator.
func TestMaskGenSpecAllocations(t *testing.T) {
	windows := []sim.CycleWindow{{Start: 100, End: 260}, {Start: 500, End: 9000}}
	for _, tc := range []struct {
		name     string
		bits     int
		coreMask []int
		max      float64
	}{
		{"single-bit", 1, nil, 2},
		{"triple-bit", 3, nil, 2},
		{"triple-bit with core mask", 3, []int{2, 5}, 3},
	} {
		gen, err := NewMaskGen(sim.StructL1D, windows, 4096, tc.bits, 11)
		if err != nil {
			t.Fatal(err)
		}
		gen.SetCoreMask(tc.coreMask)
		i := 0
		if got := testing.AllocsPerRun(500, func() { gen.Spec(i); i++ }); got > tc.max {
			t.Errorf("%s: %.0f allocations per spec, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

func TestMaskGenErrors(t *testing.T) {
	w := []sim.CycleWindow{{Start: 0, End: 10}}
	if _, err := NewMaskGen(sim.StructRegFile, nil, 32, 1, 0); err == nil {
		t.Error("no windows accepted")
	}
	if _, err := NewMaskGen(sim.StructRegFile, w, 0, 1, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewMaskGen(sim.StructRegFile, w, 32, 0, 0); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := NewMaskGen(sim.StructRegFile, w, 2, 3, 0); err == nil {
		t.Error("multiplicity beyond size accepted")
	}
	if _, err := NewMaskGen(sim.StructRegFile, []sim.CycleWindow{{Start: 5, End: 5}}, 32, 1, 0); err == nil {
		t.Error("empty window accepted")
	}
}

// Property: mask cycles land in windows and bit positions stay in range
// for arbitrary geometry.
func TestQuickMaskGen(t *testing.T) {
	f := func(seed int64, sizeLog uint8, w1 uint16) bool {
		size := int64(1) << (sizeLog%20 + 2)
		win := []sim.CycleWindow{{Start: 10, End: 10 + uint64(w1%1000) + 1}}
		gen, err := NewMaskGen(sim.StructL2, win, size, 2, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			s := gen.Spec(i)
			if s.Cycle <= win[0].Start || s.Cycle > win[0].End {
				return false
			}
			for _, p := range s.BitPositions {
				if p < 0 || p >= size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSampleSize(t *testing.T) {
	// Large populations at 99% / 2% give the classic ~4,148; the paper's
	// 3,000 runs correspond to a slightly wider margin.
	n := SampleSize(1e12, 0.99, 0.02)
	if n < 4000 || n > 4300 {
		t.Errorf("SampleSize(1e12, 99%%, 2%%) = %d, want ~4148", n)
	}
	// Small populations saturate.
	if got := SampleSize(100, 0.99, 0.02); got > 100 {
		t.Errorf("sample %d exceeds population", got)
	}
	if SampleSize(0, 0.99, 0.02) != 0 {
		t.Error("zero population should need zero samples")
	}
	if a, b := SampleSize(1e12, 0.95, 0.02), SampleSize(1e12, 0.99, 0.02); a >= b {
		t.Errorf("lower confidence should need fewer samples: %d vs %d", a, b)
	}
}

func TestProfileApp(t *testing.T) {
	app := bench.VA()
	prof, err := ProfileApp(nil, app, config.RTX2060())
	if err != nil {
		t.Fatal(err)
	}
	if prof.App != "VA" || prof.GPU != "RTX2060" {
		t.Errorf("profile identity wrong: %+v", prof)
	}
	if len(prof.Golden) == 0 || prof.TotalCycles == 0 {
		t.Error("profile missing golden/cycles")
	}
	ks := prof.Kernels["va_add"]
	if ks == nil || len(ks.Windows) != 1 {
		t.Fatalf("kernel stats missing: %+v", prof.Kernels)
	}
}

func TestRunCampaignVA(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &CampaignConfig{
		App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 40, Bits: 1, Seed: 99,
	}
	res, err := RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 40 {
		t.Errorf("total = %d", res.Counts.Total())
	}
	if res.Counts.Masked == 0 {
		t.Error("no masked outcomes in 40 register-file injections")
	}
	if res.Counts.Failures()+res.Counts.Masked+res.Counts.Performance != 40 {
		t.Error("outcome accounting inconsistent")
	}
	if len(res.Exps) != 40 {
		t.Fatalf("experiments = %d", len(res.Exps))
	}
	for _, e := range res.Exps {
		if !e.Outcome.Valid() {
			t.Errorf("experiment %d has invalid outcome", e.ID)
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, _ := ProfileApp(nil, app, gpu)
	cfg := &CampaignConfig{
		App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 15, Bits: 1, Seed: 7, Workers: 4,
	}
	r1, err := RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counts != r2.Counts {
		t.Errorf("counts differ: %+v vs %+v", r1.Counts, r2.Counts)
	}
	for i := range r1.Exps {
		if r1.Exps[i].Effect != r2.Exps[i].Effect {
			t.Errorf("experiment %d differs: %s vs %s", i, r1.Exps[i].Effect, r2.Exps[i].Effect)
		}
	}
}

// TestCampaignAbsentStructureAllMasked: a structure the kernel does not use
// is answered without simulating, through the collector like any other
// experiment — so each record reaches the journal, then the trace sink,
// then the progress callback, with the bytes it has always had.
func TestCampaignAbsentStructureAllMasked(t *testing.T) {
	app := bench.VA() // uses no shared memory
	gpu := config.RTX2060()
	prof, _ := ProfileApp(nil, app, gpu)
	var calls, wantCalls []string
	var rec streamRecorder
	cfg := &CampaignConfig{
		App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructShared, Runs: 10, Bits: 1, Seed: 3,
	}
	rec.attach(cfg)
	journal, trace := cfg.Journal, cfg.TraceSink
	cfg.Journal = func(e Experiment) error { calls = append(calls, fmt.Sprint("journal ", e.ID)); return journal(e) }
	cfg.TraceSink = func(tr ExperimentTrace) error { calls = append(calls, fmt.Sprint("trace ", tr.ID)); return trace(tr) }
	cfg.Progress = func(e Experiment) { calls = append(calls, fmt.Sprint("progress ", e.ID)) }
	before := sim.PoolStats()
	res, err := RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Masked != 10 || res.Counts.Failures() != 0 || len(res.Exps) != 10 {
		t.Errorf("shared campaign on smem-free kernel: %+v, %d experiments", res.Counts, len(res.Exps))
	}
	if after := sim.PoolStats(); after != before {
		t.Errorf("an absent structure touched the device pool: %+v -> %+v", before, after)
	}
	for i := 0; i < 10; i++ {
		wantCalls = append(wantCalls, fmt.Sprint("journal ", i), fmt.Sprint("trace ", i), fmt.Sprint("progress ", i))
		wantJournal := fmt.Sprintf(`{"id":%d,"cycle":0,"bits":null,"effect":"Masked","cycles":%d,"injected":false,`+
			`"detail":"structure absent for kernel","why":"masked:not-applied"}`, i, prof.TotalCycles)
		wantTrace := fmt.Sprintf(`{"id":%d,"effect":"Masked","why":"masked:not-applied","events":[{"ev":"classify","cycle":%d,`+
			`"core":-1,"warp":-1,"lane":-1,"pc":-1,"outcome":"Masked","why":"masked:not-applied"}]}`, i, prof.TotalCycles)
		if got := string(rec.journal[i]); got != wantJournal {
			t.Errorf("journal record %d:\n got  %s\n want %s", i, got, wantJournal)
		}
		if got := string(rec.traces[i]); got != wantTrace {
			t.Errorf("trace record %d:\n got  %s\n want %s", i, got, wantTrace)
		}
	}
	if !reflect.DeepEqual(calls, wantCalls) {
		t.Errorf("hook order %v, want %v", calls, wantCalls)
	}
}

func TestCampaignUnknownKernel(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, _ := ProfileApp(nil, app, gpu)
	cfg := &CampaignConfig{App: app, GPU: gpu, Kernel: "nope",
		Structure: sim.StructRegFile, Runs: 1, Bits: 1}
	if _, err := RunCampaign(nil, cfg, prof); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestSkipCompleted is the engine half of crash-safe resume: running with
// cfg.Completed set to a subset must execute exactly the remaining
// indices, with outcomes bit-identical to the same experiments in an
// uninterrupted campaign.
func TestSkipCompleted(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, _ := ProfileApp(nil, app, gpu)
	cfg := &CampaignConfig{App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 30, Bits: 1, Seed: 9}
	full, err := RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Exps) != 30 {
		t.Fatalf("full campaign ran %d experiments", len(full.Exps))
	}

	// Mark an arbitrary first chunk (plus an out-of-range index, which
	// must be ignored) as already completed.
	cfg2 := *cfg
	cfg2.Completed = []int{0, 1, 2, 3, 4, 5, 6, 12, 13, 99, -1}
	var journaled []Experiment
	cfg2.Journal = func(e Experiment) error { journaled = append(journaled, e); return nil }
	part, err := RunCampaign(nil, &cfg2, prof)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := 30 - 9
	if len(part.Exps) != wantRuns || len(journaled) != wantRuns {
		t.Fatalf("resumed campaign ran %d experiments, journaled %d, want %d",
			len(part.Exps), len(journaled), wantRuns)
	}
	byID := map[int]Experiment{}
	for _, e := range full.Exps {
		byID[e.ID] = e
	}
	for _, e := range part.Exps {
		ref := byID[e.ID]
		if e.Effect != ref.Effect || e.Cycle != ref.Cycle || e.Cycles != ref.Cycles {
			t.Errorf("experiment %d diverged on resume: %+v vs %+v", e.ID, e, ref)
		}
		for _, skipped := range cfg2.Completed {
			if e.ID == skipped {
				t.Errorf("experiment %d ran despite being completed", e.ID)
			}
		}
	}

	// Everything completed: nothing runs, nothing journaled.
	cfg3 := *cfg
	for i := 0; i < 30; i++ {
		cfg3.Completed = append(cfg3.Completed, i)
	}
	cfg3.Journal = func(Experiment) error { t.Error("journaled with nothing pending"); return nil }
	empty, err := RunCampaign(nil, &cfg3, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Exps) != 0 || empty.Counts.Total() != 0 {
		t.Errorf("fully completed campaign still ran: %+v", empty.Counts)
	}
}

// TestJournalHookError verifies a failing journal hook aborts the
// campaign instead of silently dropping records.
func TestJournalHookError(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, _ := ProfileApp(nil, app, gpu)
	cfg := &CampaignConfig{App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 8, Bits: 1, Seed: 2,
		Journal: func(Experiment) error { return errDisk },
	}
	if _, err := RunCampaign(nil, cfg, prof); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("journal error not propagated: %v", err)
	}
}

var errDisk = &diskErr{}

type diskErr struct{}

func (*diskErr) Error() string { return "disk full" }

func TestSpecMarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		spec := &sim.FaultSpec{
			Structure:    sim.Structure(r.Intn(6)),
			Cycle:        uint64(r.Int63()),
			BitPositions: []int64{r.Int63n(1000), r.Int63n(1000)},
			WarpWide:     r.Intn(2) == 0,
			Blocks:       r.Intn(4),
			Seed:         r.Int63(),
		}
		if r.Intn(2) == 0 {
			spec.CoreMask = []int{0, 3, 7}
		}
		text := MarshalSpec(spec)
		got, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(spec, got) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", spec, got)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		"garbage",
		"-gpufi_structure l9\n",
		"-gpufi_cycle notanumber\n",
		"-gpufi_bits a:b\n",
		"-gpufi_frobnicate 1\n",
		"-gpufi_structure regfile\n", // no bits: fails validation
	}
	for i, src := range cases {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEvaluateAppSmall(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	eval, err := EvaluateApp(nil, app, gpu, EvalConfig{Runs: 10, Bits: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if eval.App != "VA" || len(eval.Kernels) != 1 {
		t.Fatalf("eval shape wrong: %+v", eval)
	}
	if eval.WAVF < 0 || eval.WAVF > 1 {
		t.Errorf("wAVF = %g", eval.WAVF)
	}
	if eval.FIT < 0 {
		t.Errorf("FIT = %g", eval.FIT)
	}
	if eval.Occupancy <= 0 || eval.Occupancy > 1 {
		t.Errorf("occupancy = %g", eval.Occupancy)
	}
	ke := eval.Kernels[0]
	if len(ke.Structs) != 5 { // RF, shared, L1D, L1T, L2 on RTX 2060
		t.Errorf("structures = %d, want 5", len(ke.Structs))
	}
	if eval.RegFile.Total() != 10 {
		t.Errorf("regfile counts = %+v", eval.RegFile)
	}
	shares := StructBreakdown(eval)
	var sum float64
	for _, v := range shares {
		if v < 0 {
			t.Errorf("negative share: %v", shares)
		}
		sum += v
	}
	if sum > 0 && (sum < 0.999 || sum > 1.001) {
		t.Errorf("shares sum to %g", sum)
	}
}

func TestEvaluateAppTitanSkipsL1D(t *testing.T) {
	app := bench.VA()
	eval, err := EvaluateApp(nil, app, config.GTXTitan(), EvalConfig{Runs: 5, Bits: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ke := range eval.Kernels {
		for _, sa := range ke.Structs {
			if sa.Structure == sim.StructL1D {
				t.Error("L1D evaluated on GTX Titan")
			}
		}
	}
}

package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// readGolden parses a "name sha256" file under testdata/.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			want[name] = sum
		}
	}
	return want
}

// TestSeedToFaultMappingGolden pins the (campaign seed, index) → FaultSpec
// mapping: the digest of the first 1,000 specs of every structure, and of
// the WarpWide, triple-bit and Simultaneous variants, must equal the one
// recorded in testdata/spec_digests.txt. A journal written by any earlier
// build resumes, shards and re-runs to the same faults only while these
// hold; a mismatch is a fork of every campaign ever logged, never a
// digest to refresh.
func TestSeedToFaultMappingGolden(t *testing.T) {
	const runs = 1000
	gpu := config.RTX2060()
	app := &bench.App{Name: "golden", Kernels: []string{"k"}}
	prof := &Profile{App: "golden", GPU: gpu.Name, Kernels: map[string]*sim.KernelStats{"k": {
		Name: "k", Invocations: 3,
		Windows:       []sim.CycleWindow{{Start: 120, End: 4211}, {Start: 9000, End: 9007}, {Start: 70000, End: 1 << 33}},
		RegsPerThread: 24, SmemPerCTA: 3072, LocalPerThr: 48,
		UsedCores: []int{0, 3, 7, 29},
	}}, KernelOrder: []string{"k"}}

	type point struct {
		name string
		cfg  CampaignConfig
	}
	var points []point
	for _, st := range sim.Structures() {
		points = append(points, point{st.String(), CampaignConfig{Structure: st, Bits: 1, Seed: 20220522}})
	}
	points = append(points,
		point{"regfile+warpwide", CampaignConfig{Structure: sim.StructRegFile, Bits: 1, Seed: -7, WarpWide: true}},
		point{"l1d+3bit", CampaignConfig{Structure: sim.StructL1D, Bits: 3, Seed: 1 << 40}},
		point{"shared+3bit+blocks", CampaignConfig{Structure: sim.StructShared, Bits: 3, Seed: 3, Blocks: 2, Invocation: 2}},
		point{"regfile+l2+local", CampaignConfig{Structure: sim.StructRegFile, Bits: 1, Seed: 5,
			Simultaneous: []sim.Structure{sim.StructL2, sim.StructLocal}}},
	)

	want := readGolden(t, "testdata/spec_digests.txt")
	for _, p := range points {
		cfg := p.cfg
		cfg.App, cfg.GPU, cfg.Kernel, cfg.Runs = app, gpu, "k", runs
		plan, err := planCampaign(&cfg, prof)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if len(plan.specs) != runs {
			t.Fatalf("%s: planned %d specs, want %d", p.name, len(plan.specs), runs)
		}
		h := sha256.New()
		for i, s := range plan.specs {
			fmt.Fprintf(h, "%d %+v\n", i, *s)
			for _, e := range plan.extras[i] {
				fmt.Fprintf(h, "  + %+v\n", *e)
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[p.name] {
			t.Errorf("%s %s\n\trecorded: %q", p.name, got, want[p.name])
		}
	}
	if len(want) != len(points) {
		t.Errorf("testdata/spec_digests.txt names %d points, the test derives %d", len(want), len(points))
	}
}

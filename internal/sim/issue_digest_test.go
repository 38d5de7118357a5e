package sim_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/sim"
)

// TestIssueScheduleGolden pins the warp schedule: for every application at
// scale 1, on every preset, the digest of the TraceWriter stream (cycle,
// core, warp, pc and active mask of every issue) and of each kernel's
// occupancy statistics (the Float64bits of Occupancy, MeanThreadsPerSM and
// MeanCTAsPerSM) must equal the line in testdata/issue_digests.txt. The file was recorded before the cycle loop
// was last restructured; a mismatch means the simulator issues in another
// order or samples occupancy differently, and every journal and figure
// moves with it. Never refresh the file to make a change pass.
func TestIssueScheduleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("traces 36 application runs")
	}
	raw, err := os.ReadFile("testdata/issue_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			want[name] = sum
		}
	}
	for _, preset := range config.Presets() {
		for _, name := range bench.Names() {
			// The key's last part names the one scheduler, greedy-then-oldest,
			// as it did when the file also held loose round-robin's rows.
			key := name + "/" + preset.Name + "/gto"
			t.Run(key, func(t *testing.T) {
				if got := issueDigest(t, preset.Name, name); got != want[key] {
					t.Errorf("digest %s\n\trecorded: %q", got, want[key])
				}
			})
		}
	}
}

// issueDigest runs one application on a new device of the named preset and
// digests its issue trace and occupancy.
func issueDigest(t *testing.T, presetName, app string) string {
	t.Helper()
	cfg, err := config.ByName(presetName)
	if err != nil {
		t.Fatal(err)
	}
	a, err := bench.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	g.TraceWriter = h
	if _, err := a.Run(g); err != nil {
		t.Fatal(err)
	}
	stats := g.KernelStats()
	for _, k := range g.KernelNames() {
		ks := stats[k]
		fmt.Fprintf(h, "%s %x %x %x\n", k, math.Float64bits(ks.Occupancy),
			math.Float64bits(ks.MeanThreadsPerSM), math.Float64bits(ks.MeanCTAsPerSM))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

package sim

import (
	"strings"
	"testing"
)

func TestStatsReport(t *testing.T) {
	g := newTestGPU(t)
	runVecadd(t, g, 512)
	rep := g.StatsReport()
	for _, want := range []string{"vecadd", "L1D(all)", "L2", "hit-rate", "high-water", "cycles"} {
		if !strings.Contains(rep, want) {
			t.Errorf("stats report missing %q:\n%s", want, rep)
		}
	}
}

func TestTraceWriter(t *testing.T) {
	g := newTestGPU(t)
	var buf strings.Builder
	g.TraceWriter = &buf
	p := mustAssemble(t, ".kernel tr\nMOV R0, 7\nEXIT")
	if _, err := g.Launch(p, Dim1(1), Dim1(32)); err != nil {
		t.Fatal(err)
	}
	trace := buf.String()
	for _, want := range []string{"MOV R0, 7", "EXIT", "core00", "pc"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q:\n%s", want, trace)
		}
	}
}

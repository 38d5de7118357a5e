package config

import (
	"math"
	"strings"
	"testing"
)

// Table I of the paper, in bits, used to verify derived sizes. Sizes with a
// cache component include the 57 tag bits per line.
func mb(v float64) float64 { return v * 1024 * 1024 * 8 }
func kb(v float64) float64 { return v * 1024 * 8 }

func within(t *testing.T, name string, got int64, want float64, tol float64) {
	t.Helper()
	if math.Abs(float64(got)-want) > tol*want {
		t.Errorf("%s = %d bits, want ~%.0f bits", name, got, want)
	}
}

func TestTableISizesRTX2060(t *testing.T) {
	g := RTX2060()
	within(t, "RegFile", g.RegFileBits(), mb(7.5), 0.001)
	within(t, "Smem", g.SmemBits(), mb(1.875), 0.001)
	within(t, "L1D", g.L1DBits(), mb(1.98), 0.01)
	within(t, "L1T", g.L1TBits(), mb(3.96), 0.01)
	within(t, "L1I", g.L1IBits(), mb(3.96), 0.01)
	within(t, "L1C", g.L1CBits(), mb(2.08), 0.01)
	within(t, "L2", g.L2Bits(), mb(3.17), 0.01)
}

func TestTableISizesGV100(t *testing.T) {
	g := QuadroGV100()
	within(t, "RegFile", g.RegFileBits(), mb(20), 0.001)
	within(t, "Smem", g.SmemBits(), mb(7.5), 0.001)
	within(t, "L1D", g.L1DBits(), mb(2.64), 0.01)
	within(t, "L1T", g.L1TBits(), mb(10.56), 0.01)
	within(t, "L2", g.L2Bits(), mb(6.33), 0.01)
}

func TestTableISizesGTXTitan(t *testing.T) {
	g := GTXTitan()
	within(t, "RegFile", g.RegFileBits(), mb(3.5), 0.001)
	within(t, "Smem", g.SmemBits(), kb(672), 0.001)
	if g.L1DBits() != 0 {
		t.Errorf("GTX Titan L1D = %d, want 0 (N/A)", g.L1DBits())
	}
	within(t, "L1T", g.L1TBits(), kb(709.38), 0.01)
	within(t, "L1I", g.L1IBits(), kb(59.08), 0.01)
	within(t, "L1C", g.L1CBits(), kb(248.92), 0.01)
	within(t, "L2", g.L2Bits(), mb(1.58), 0.01)
}

// Table V per-SM cache sizes with 57-bit tags.
func TestTableVPerSMCacheSizes(t *testing.T) {
	g := RTX2060()
	within(t, "L1D/SM", g.L1D.SizeBits(), kb(67.56), 0.01)
	within(t, "L1T/SM", g.L1T.SizeBits(), kb(135.13), 0.01)
	within(t, "L1C/SM", g.L1C.SizeBits(), kb(71.13), 0.01)
	v := QuadroGV100()
	within(t, "GV100 L1D/SM", v.L1D.SizeBits(), kb(33.78), 0.01)
	k := GTXTitan()
	within(t, "Titan L1T/SM", k.L1T.SizeBits(), kb(50.67), 0.01)
	within(t, "Titan L1I/SM", k.L1I.SizeBits(), kb(4.22), 0.01)
}

func TestPresetsValidate(t *testing.T) {
	for _, g := range Presets() {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestPresetParameters(t *testing.T) {
	g := RTX2060()
	if g.SMs != 30 || g.MaxThreadsPerSM != 1024 || g.MaxCTAsPerSM != 32 {
		t.Errorf("RTX2060 Table V params wrong: %+v", g)
	}
	if g.MaxWarpsPerSM() != 32 {
		t.Errorf("RTX2060 warps/SM = %d, want 32", g.MaxWarpsPerSM())
	}
	v := QuadroGV100()
	if v.SMs != 80 || v.MaxThreadsPerSM != 2048 || v.SmemPerSM != 96*1024 {
		t.Errorf("GV100 Table V params wrong: %+v", v)
	}
	k := GTXTitan()
	if k.SMs != 14 || k.MaxCTAsPerSM != 16 || k.SmemPerSM != 48*1024 {
		t.Errorf("Titan Table V params wrong: %+v", k)
	}
	if g.RawFITPerBit != RawFIT12nm || k.RawFITPerBit != RawFIT28nm {
		t.Error("raw FIT rates wrong")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"RTX2060", "QuadroGV100", "GTXTitan"} {
		g, err := ByName(name)
		if err != nil || g.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, g, err)
		}
	}
	if _, err := ByName("H100"); err == nil {
		t.Error("ByName(H100) should fail")
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	for _, g := range Presets() {
		text := g.Marshal()
		got, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: parse: %v", g.Name, err)
		}
		if got.Marshal() != text {
			t.Errorf("%s: round trip mismatch:\n%s\nvs\n%s", g.Name, text, got.Marshal())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
		want      string // in the error, when set
	}{
		{"garbage line", "this is not a config", ""},
		{"unknown key", "-frobnicate 3", ""},
		// The warp scheduler is greedy-then-oldest, with no key to choose it.
		{"scheduler key", RTX2060().Marshal() + "-scheduler gto\n", `unknown key "scheduler"`},
		{"bad int", RTX2060().Marshal() + "-sms notanumber\n", ""},
		{"bad cache", "-l1d 64:8:128\n", ""},
		{"bad cache int", "-l1d a:b:c:d\n", ""},
		{"missing required", "-name x\n-sms 30\n", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			if err == nil {
				t.Fatal("parse succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want one naming %s", err, tc.want)
			}
		})
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*GPU)
	}{
		{"zero SMs", func(g *GPU) { g.SMs = 0 }},
		{"warp 64", func(g *GPU) { g.WarpSize = 64 }},
		{"threads not warp multiple", func(g *GPU) { g.MaxThreadsPerSM = 1000 }},
		{"nil L2", func(g *GPU) { g.L2 = nil }},
		{"nil L1T", func(g *GPU) { g.L1T = nil }},
		{"non-pow2 sets", func(g *GPU) { g.L1D.Sets = 48 }},
		{"zero ways", func(g *GPU) { g.L1D.Ways = 0 }},
		{"banks not dividing", func(g *GPU) { g.L2Banks = 7 }},
		{"zero FIT", func(g *GPU) { g.RawFITPerBit = 0 }},
		{"empty name", func(g *GPU) { g.Name = "" }},
		{"zero issue", func(g *GPU) { g.IssuePerCycle = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			g := RTX2060()
			m.mut(g)
			if err := g.Validate(); err == nil {
				t.Error("validation passed, want failure")
			}
		})
	}
}

func TestCacheGeometry(t *testing.T) {
	c := &Cache{Sets: 64, Ways: 8, LineBytes: 128, HitCycles: 32}
	if c.Lines() != 512 {
		t.Errorf("Lines = %d", c.Lines())
	}
	if c.DataBytes() != 64*1024 {
		t.Errorf("DataBytes = %d", c.DataBytes())
	}
	if c.LineBits() != 57+128*8 {
		t.Errorf("LineBits = %d", c.LineBits())
	}
	if c.SizeBits() != int64(512)*(57+1024) {
		t.Errorf("SizeBits = %d", c.SizeBits())
	}
}

func TestMarshalContainsComment(t *testing.T) {
	if !strings.Contains(RTX2060().Marshal(), "# gpuFI-4") {
		t.Error("marshal missing header comment")
	}
}

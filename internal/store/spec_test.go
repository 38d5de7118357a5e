package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gpufi/internal/core"
	"gpufi/internal/plan"
)

// specWiring names, for every field of Spec, a change to it and the
// CampaignConfig field that change must reach through Config. A Spec field
// without a row, or one whose row reaches nothing, is a field Config drops.
var specWiring = map[string]struct {
	set     func(*Spec)
	reaches string
}{
	"App":          {func(s *Spec) { s.App, s.Kernel = "VA", "va_add" }, "App"},
	"Scale":        {func(s *Spec) { s.Scale = 2 }, "App"},
	"GPU":          {func(s *Spec) { s.GPU = "QuadroGV100" }, "GPU"},
	"Kernel":       {func(s *Spec) { s.Kernel = "bp_adjust" }, "Kernel"},
	"Structure":    {func(s *Spec) { s.Structure = "shared" }, "Structure"},
	"Runs":         {func(s *Spec) { s.Runs = 20 }, "Runs"},
	"Bits":         {func(s *Spec) { s.Bits = 3 }, "Bits"},
	"WarpWide":     {func(s *Spec) { s.WarpWide = true }, "WarpWide"},
	"Blocks":       {func(s *Spec) { s.Blocks = 2 }, "Blocks"},
	"Seed":         {func(s *Spec) { s.Seed = 2 }, "Seed"},
	"Workers":      {func(s *Spec) { s.Workers = 3 }, "Workers"},
	"Invocation":   {func(s *Spec) { s.Invocation = 1 }, "Invocation"},
	"Simultaneous": {func(s *Spec) { s.Simultaneous = []string{"l2"} }, "Simultaneous"},
	"Lenient":      {func(s *Spec) { s.Lenient = true }, "GPU"},
	"ECC":          {func(s *Spec) { s.ECC = true }, "GPU"},
	"L2Queue":      {func(s *Spec) { s.L2Queue = 8 }, "GPU"},
	"ExpTimeoutMS": {func(s *Spec) { s.ExpTimeoutMS = 500 }, "ExpTimeout"},
	"Trace":        {func(s *Spec) { s.Trace = true }, "Trace"},
	"Plan":         {func(s *Spec) { s.Plan = &plan.Rule{TargetCI: 0.1} }, "Plan"},
	"TargetCI":     {func(s *Spec) { s.TargetCI = 0.1 }, "Plan"},
}

// TestSpecFieldsReachConfig: every field of Spec, changed alone, changes
// the CampaignConfig field it describes, so a field added to Spec and not
// wired into Config fails here.
func TestSpecFieldsReachConfig(t *testing.T) {
	base := Spec{App: "BP", GPU: "RTX2060", Kernel: "bp_forward", Structure: "regfile", Runs: 10, Seed: 1}
	want := configFields(t, base)
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Spec{})) {
		w, ok := specWiring[f.Name]
		if !ok {
			t.Errorf("Spec.%s has no row in specWiring", f.Name)
			continue
		}
		s := base
		w.set(&s)
		if got := configFields(t, s); got[w.reaches] == want[w.reaches] {
			t.Errorf("Spec.%s changed, Config's %s did not: %s", f.Name, w.reaches, got[w.reaches])
		}
	}
}

// configFields renders every exported field of the CampaignConfig s builds:
// the application by name and golden-output size (its scale), anything
// else by its JSON encoding.
func configFields(t *testing.T, s Spec) map[string]string {
	t.Helper()
	cfg, err := s.Config()
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	out := map[string]string{"App": fmt.Sprintf("%s/%d", cfg.App.Name, len(cfg.App.Reference))}
	v := reflect.ValueOf(*cfg)
	for _, f := range reflect.VisibleFields(v.Type()) {
		if !f.IsExported() || f.Name == "App" || f.Type.Kind() == reflect.Func {
			continue
		}
		raw, err := json.Marshal(v.FieldByIndex(f.Index).Interface())
		if err != nil {
			t.Fatal(err)
		}
		out[f.Name] = string(raw)
	}
	return out
}

// TestResumeAtOtherWorkerCount: the worker count is not part of a
// campaign's identity, so a campaign cancelled at two workers resumes at
// one and ends with exactly the journal records an uninterrupted run
// writes (sorted: records land in completion order). Trace and the
// experiment deadline stay part of it: they change journal bytes.
func TestResumeAtOtherWorkerCount(t *testing.T) {
	spec := vaSpec(40, 7)
	ref, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := runCampaign(nil, ref, "va", spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	if _, err := runCampaign(ctx, st, "va", spec, nil, func(core.Experiment) {
		if seen++; seen == 10 {
			cancel()
		}
	}); err == nil {
		t.Fatal("cancelled run reported success")
	}
	other := spec
	other.Workers = 1
	traced, timed := spec, spec
	traced.Trace, timed.ExpTimeoutMS = true, 1000
	if !SameSpec(spec, other) || SameSpec(spec, traced) || SameSpec(spec, timed) {
		t.Fatal("SameSpec must ignore Workers, and only Workers")
	}
	got, err := runCampaign(nil, st, "va", other, nil, nil)
	if err != nil {
		t.Fatalf("resume at another worker count: %v", err)
	}
	if got.Counts != want.Counts {
		t.Errorf("resumed counts %+v, uninterrupted %+v", got.Counts, want.Counts)
	}
	if g, w := sortedJournal(t, st), sortedJournal(t, ref); g != w {
		t.Errorf("resumed journal differs from an uninterrupted run's:\n got: %s\nwant: %s", g, w)
	}
}

// sortedJournal returns campaign va's journal lines in st, sorted.
func sortedJournal(t *testing.T, st *Store) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(st.Dir(), "va", journalFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}

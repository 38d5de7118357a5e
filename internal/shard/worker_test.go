package shard

import (
	"testing"

	"gpufi/internal/store"
)

// TestProfileKey: the worker's profile cache key follows everything the
// fault-free run depends on. The application, its scale, and every Spec
// field TestSpecFieldsReachConfig (internal/store) marks as reaching the
// GPU change the key; specs that differ only in kernel, structure, runs or
// seed share one, and so do an unset scale and scale 1.
func TestProfileKey(t *testing.T) {
	base := store.Spec{App: "BP", GPU: "RTX2060", Kernel: "bp_forward", Structure: "regfile", Runs: 10, Seed: 1}
	key := func(s store.Spec) string {
		t.Helper()
		cfg, err := s.Config()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		return profileKey(cfg.App, s.Scale, cfg.GPU)
	}
	want := key(base)
	for _, tc := range []struct {
		field  string
		set    func(*store.Spec)
		shared bool
	}{
		{"App", func(s *store.Spec) { s.App, s.Kernel = "VA", "va_add" }, false},
		{"Scale", func(s *store.Spec) { s.Scale = 2 }, false},
		{"GPU", func(s *store.Spec) { s.GPU = "QuadroGV100" }, false},
		{"Lenient", func(s *store.Spec) { s.Lenient = true }, false},
		{"ECC", func(s *store.Spec) { s.ECC = true }, false},
		{"L2Queue", func(s *store.Spec) { s.L2Queue = 8 }, false},
		{"Kernel", func(s *store.Spec) { s.Kernel = "bp_adjust" }, true},
		{"Structure", func(s *store.Spec) { s.Structure = "shared" }, true},
		{"Runs", func(s *store.Spec) { s.Runs = 20 }, true},
		{"Seed", func(s *store.Spec) { s.Seed = 2 }, true},
		{"Scale 1", func(s *store.Spec) { s.Scale = 1 }, true},
	} {
		s := base
		tc.set(&s)
		if got := key(s); (got == want) != tc.shared {
			t.Errorf("Spec.%s changed: shares the profile %v, want %v", tc.field, got == want, tc.shared)
		}
	}
}

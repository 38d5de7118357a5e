package store

import (
	"fmt"
	"strings"
	"time"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/core"
	"gpufi/internal/plan"
	"gpufi/internal/sim"
)

// Spec is the serializable form of one campaign point: everything a
// CampaignConfig holds, but by name instead of by pointer, so it can live
// in a config record on disk or travel in a POST body. A Spec plus a seed
// fully determines a campaign's outcomes, which is what makes journals
// resumable: the re-run derives the same fault list and skips the indices
// already on disk.
type Spec struct {
	App          string   `json:"app"`
	Scale        int      `json:"scale,omitempty"` // problem-size scale, default 1
	GPU          string   `json:"gpu"`
	Kernel       string   `json:"kernel"`
	Structure    string   `json:"structure"`
	Runs         int      `json:"runs"`
	Bits         int      `json:"bits,omitempty"` // fault multiplicity, default 1
	WarpWide     bool     `json:"warp_wide,omitempty"`
	Blocks       int      `json:"blocks,omitempty"`
	Seed         int64    `json:"seed"`
	Workers      int      `json:"workers,omitempty"`
	Invocation   int      `json:"invocation,omitempty"`
	Simultaneous []string `json:"simultaneous,omitempty"`
	Lenient      bool     `json:"lenient_memory,omitempty"`
	ECC          bool     `json:"ecc,omitempty"`
	L2Queue      int      `json:"l2_queue,omitempty"`

	// ExpTimeoutMS is the per-experiment wall-clock deadline in
	// milliseconds (0 = none): a simulator-side hang is classified as a
	// quarantined Timeout instead of wedging the worker. It complements
	// the cycle-limit, which only catches runs whose cycle counter keeps
	// advancing.
	ExpTimeoutMS int64 `json:"exp_timeout_ms,omitempty"`

	// Trace records fault-propagation traces (one JSONL record per
	// experiment in traces.jsonl next to the journal). Tracing is purely
	// observational: outcomes stay bit-identical with it on or off.
	Trace bool `json:"trace,omitempty"`

	// Plan configures adaptive early stopping: the campaign stops once its
	// confidence interval is tighter than Plan.TargetCI, with Runs as the
	// ceiling. Nil (or a zero TargetCI) keeps the fixed-N behavior and
	// byte-identical journals.
	Plan *plan.Rule `json:"plan,omitempty"`

	// TargetCI is shorthand for Plan: a POST body can say just
	// {"target_ci": 0.01} instead of a nested plan object. normalize folds
	// it into Plan (ignored when Plan is set explicitly).
	TargetCI float64 `json:"target_ci,omitempty"`
}

// normalize applies the defaults a zero value implies and folds the
// target_ci shorthand into the canonical plan block.
func (s Spec) normalize() Spec {
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.Bits == 0 {
		s.Bits = 1
	}
	if s.Plan == nil && s.TargetCI != 0 {
		s.Plan = &plan.Rule{TargetCI: s.TargetCI}
	}
	s.TargetCI = 0
	return s
}

// PlanRule returns the campaign's effective adaptive stop rule after
// folding the target_ci shorthand — nil when the campaign is fixed-N.
func (s Spec) PlanRule() *plan.Rule {
	return s.normalize().Plan
}

// Config resolves the spec to a validated CampaignConfig: the application
// is instantiated at its scale, the GPU preset is looked up and given the
// spec's memory-model knobs, and structure names are parsed. The returned
// config has no journal or progress hooks; callers attach their own.
func (s Spec) Config() (*core.CampaignConfig, error) {
	s = s.normalize()
	app, err := bench.ByNameScale(s.App, s.Scale)
	if err != nil {
		return nil, fmt.Errorf("store: spec: %v", err)
	}
	gpu, err := config.ByName(s.GPU)
	if err != nil {
		return nil, fmt.Errorf("store: spec: %v", err)
	}
	gpu.LenientMemory = s.Lenient
	gpu.ECC = s.ECC
	gpu.L2QueueCycles = s.L2Queue
	st, err := sim.ParseStructure(s.Structure)
	if err != nil {
		return nil, fmt.Errorf("store: spec: %v", err)
	}
	cfg := &core.CampaignConfig{
		App: app, GPU: gpu, Kernel: s.Kernel, Structure: st,
		Runs: s.Runs, Bits: s.Bits, WarpWide: s.WarpWide, Blocks: s.Blocks,
		Seed: s.Seed, Workers: s.Workers,
		Invocation: s.Invocation,
		ExpTimeout: time.Duration(s.ExpTimeoutMS) * time.Millisecond,
		Trace:      s.Trace,
		Plan:       s.Plan,
	}
	for _, name := range s.Simultaneous {
		extra, err := sim.ParseStructure(name)
		if err != nil {
			return nil, fmt.Errorf("store: spec: %v", err)
		}
		cfg.Simultaneous = append(cfg.Simultaneous, extra)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ID derives the spec's default campaign identifier — deterministic, path-
// safe, and readable: app-gpu-kernel-structure-b<bits>-s<seed>, with the
// scale appended when it is not 1.
func (s Spec) ID() string {
	s = s.normalize()
	id := fmt.Sprintf("%s-%s-%s-%s-b%d-s%d",
		strings.ToLower(s.App), strings.ToLower(s.GPU), strings.ToLower(s.Kernel),
		strings.ToLower(s.Structure), s.Bits, s.Seed)
	if s.Scale != 1 {
		id += fmt.Sprintf("-x%d", s.Scale)
	}
	return sanitizeID(id)
}

// sanitizeID maps any byte outside the journal's directory-name alphabet
// to '_'.
func sanitizeID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, id)
}

// ValidID reports whether id is usable as a campaign directory name.
func ValidID(id string) bool {
	if id == "" || id == "." || id == ".." || len(id) > 200 {
		return false
	}
	return sanitizeID(id) == id
}

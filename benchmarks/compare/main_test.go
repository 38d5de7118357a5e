package main

import (
	"io"
	"testing"
)

// TestGateAndPromote covers the three ways a metric is handled specially:
// a value-less metric is judged on its floor alone, a metric the recording
// host has too few CPUs for is skipped by the gate, and -promote refuses to
// write it.
func TestGateAndPromote(t *testing.T) {
	floorOnly := Metric{Direction: "higher", Tolerance: 0.5, Min: 1.8, MinCPUs: 4}
	relative := Metric{Value: 10, Direction: "higher"}
	for _, tc := range []struct {
		name       string
		metrics    map[string]Metric
		current    map[string]float64
		wantFailed int
		// wantValues are the baseline values after promote.
		wantValues map[string]float64
	}{
		{
			name:       "value-less above floor passes",
			metrics:    map[string]Metric{"par": floorOnly},
			current:    map[string]float64{"par": 1.9, "parallel_bench_cpus": 8},
			wantFailed: 0,
			wantValues: map[string]float64{"par": 1.9},
		},
		{
			name:       "value-less below floor fails, relative tolerance ignored",
			metrics:    map[string]Metric{"par": floorOnly},
			current:    map[string]float64{"par": 1.7, "parallel_bench_cpus": 8},
			wantFailed: 1,
			wantValues: map[string]float64{"par": 1.7},
		},
		{
			name:       "below min_cpus: gate skips, promote leaves it unwritten",
			metrics:    map[string]Metric{"par": floorOnly, "speed": relative},
			current:    map[string]float64{"par": 0.5, "speed": 12, "parallel_bench_cpus": 2},
			wantFailed: 0,
			wantValues: map[string]float64{"par": 0, "speed": 12},
		},
		{
			name:       "no CPU count in the artifacts counts as too few",
			metrics:    map[string]Metric{"par": floorOnly},
			current:    map[string]float64{"par": 0.5},
			wantFailed: 0,
			wantValues: map[string]float64{"par": 0},
		},
		{
			name:       "relative metric past tolerance fails",
			metrics:    map[string]Metric{"speed": relative},
			current:    map[string]float64{"speed": 8},
			wantFailed: 1,
			wantValues: map[string]float64{"speed": 8},
		},
	} {
		// promote writes into the map, so the baseline gets its own copy.
		base := Baseline{Tolerance: 0.15, Metrics: map[string]Metric{}}
		for name, m := range tc.metrics {
			base.Metrics[name] = m
		}
		failed, err := gate(io.Discard, base, tc.current)
		if err != nil || failed != tc.wantFailed {
			t.Errorf("%s: gate failed=%d err=%v, want %d", tc.name, failed, err, tc.wantFailed)
		}
		if err := promote(io.Discard, &base, tc.current); err != nil {
			t.Errorf("%s: promote: %v", tc.name, err)
		}
		for name, want := range tc.wantValues {
			m := base.Metrics[name]
			if m.Value != want {
				t.Errorf("%s: promote left %s at %v, want %v", tc.name, name, m.Value, want)
			}
			if orig := tc.metrics[name]; m.Min != orig.Min || m.MinCPUs != orig.MinCPUs || m.Direction != orig.Direction {
				t.Errorf("%s: promote changed %s's contract: %+v", tc.name, name, m)
			}
		}
	}

	if _, err := gate(io.Discard, Baseline{Metrics: map[string]Metric{"x": {Direction: "lower"}}},
		map[string]float64{"x": 1}); err == nil {
		t.Error("a metric with neither value nor floor was accepted")
	}
}

package main

import (
	"io"
	"testing"
)

// TestGateAndPromote covers the gate's verdicts in both directions, the
// per-metric tolerance, a metric missing from the artifacts, and that
// -promote writes values and nothing else.
func TestGateAndPromote(t *testing.T) {
	speed := Metric{Value: 10, Direction: "higher"}
	overhead := Metric{Value: 1.0, Direction: "lower", Tolerance: 0.05}
	for _, tc := range []struct {
		name       string
		metrics    map[string]Metric
		current    map[string]float64
		wantFailed int
		// wantValues are the baseline values after promote.
		wantValues map[string]float64
	}{
		{
			name:       "both within tolerance",
			metrics:    map[string]Metric{"speed": speed, "overhead": overhead},
			current:    map[string]float64{"speed": 9, "overhead": 1.04},
			wantFailed: 0,
			wantValues: map[string]float64{"speed": 9, "overhead": 1.04},
		},
		{
			name:       "higher-is-better metric past tolerance fails",
			metrics:    map[string]Metric{"speed": speed},
			current:    map[string]float64{"speed": 8},
			wantFailed: 1,
			wantValues: map[string]float64{"speed": 8},
		},
		{
			name:       "lower-is-better metric past its own tolerance fails",
			metrics:    map[string]Metric{"speed": speed, "overhead": overhead},
			current:    map[string]float64{"speed": 12, "overhead": 1.1},
			wantFailed: 1,
			wantValues: map[string]float64{"speed": 12, "overhead": 1.1},
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
			if orig := tc.metrics[name]; m.Tolerance != orig.Tolerance || m.Direction != orig.Direction {
				t.Errorf("%s: promote changed %s's contract: %+v", tc.name, name, m)
			}
		}
	}

	base := Baseline{Tolerance: 0.15, Metrics: map[string]Metric{"speed": speed}}
	if failed, err := gate(io.Discard, base, map[string]float64{}); err != nil || failed != 1 {
		t.Errorf("metric missing from the artifacts: gate failed=%d err=%v, want 1", failed, err)
	}
	if err := promote(io.Discard, &base, map[string]float64{}); err == nil {
		t.Error("promote accepted artifacts without the metric")
	}
	if _, err := gate(io.Discard, Baseline{Metrics: map[string]Metric{"x": {Direction: "lower"}}},
		map[string]float64{"x": 1}); err == nil {
		t.Error("a metric without a baseline value was accepted")
	}
}

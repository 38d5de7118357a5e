package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v, want 0", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if s := spread(v); !near(s, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: "root", Layer: "harness", Name: "pass", Start: 0, End: 100},
		// Two engine workers under one cluster: overlapping children.
		{ID: "a", Parent: "root", Layer: "core", Name: "engine.execute", Start: 10, End: 60},
		{ID: "b", Parent: "root", Layer: "core", Name: "engine.execute", Start: 40, End: 80},
		// A child that sticks out of its parent is clipped to it.
		{ID: "c", Parent: "root", Layer: "store", Name: "wal.fsync", Start: 95, End: 120},
		{ID: "leaf", Parent: "a", Layer: "sim", Name: "sim.app_run", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	// root: 100 - union([10,80] + [95,100]) = 100 - 75 = 25
	want := map[string]int64{"root": 25, "a": 40, "b": 40, "c": 25, "leaf": 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of %s = %d, want %d", id, self[id], w)
		}
	}
	rows, byLayer := rankSpans(spans)
	if rows[0].Name != "engine.execute" || rows[0].Count != 2 || rows[0].SelfMS != 80e-6 {
		t.Errorf("top hot spot = %+v, want engine.execute x2 with 80 ns", rows[0])
	}
	if byLayer["core"] != 80e-6 || byLayer["harness"] != 25e-6 {
		t.Errorf("layer totals = %v", byLayer)
	}
}

func TestResolveSpansSupersedesAnnounceAndReparents(t *testing.T) {
	got := resolveSpans([]span{
		{ID: "h1", Name: "core.campaign_run", Start: 0, End: 50},
		{ID: "x", Name: "engine.cluster", Start: 5, End: 5, fallback: "h1"},  // announce
		{ID: "x", Name: "engine.cluster", Start: 5, End: 30, fallback: "h1"}, // completed
		{ID: "y", Parent: "x", Name: "engine.execute", Start: 6, End: 20, fallback: "h1"},
		{ID: "z", Parent: "gone", Name: "engine.snapshot", Start: 1, End: 4, fallback: "h1"},
	})
	if len(got) != 4 {
		t.Fatalf("%d spans after resolving, want 4", len(got))
	}
	byID := map[string]span{}
	for _, s := range got {
		byID[s.ID] = s
	}
	if byID["x"].End != 30 || byID["x"].Parent != "h1" {
		t.Errorf("cluster span = %+v, want the completed record under h1", byID["x"])
	}
	if byID["y"].Parent != "x" || byID["z"].Parent != "h1" {
		t.Errorf("parents: y under %q, z under %q", byID["y"].Parent, byID["z"].Parent)
	}
}

func TestCompareMetricBothDirections(t *testing.T) {
	of := func(value float64, samples ...float64) metric { return metric{Value: value, Samples: samples} }
	base := of(100, 100, 101, 99, 100, 100)
	cases := []struct {
		name   string
		cur    metric
		higher bool
		same   bool
		want   string
	}{
		{"higher is better, 20% lower", of(80, 80, 81, 79, 80, 80), true, true, verdictWorse},
		{"higher is better, 20% higher", of(120, 120, 121, 119, 120, 120), true, true, verdictBetter},
		{"lower is better, 20% higher", of(120, 120, 121, 119, 120, 120), false, true, verdictWorse},
		{"lower is better, 20% lower", of(80, 80, 81, 79, 80, 80), false, true, verdictBetter},
		{"inside the bound", of(95, 95, 96, 94, 95, 95), true, true, verdictWithin},
		{"single values, no samples", of(80), true, true, verdictWorse},
		{"fingerprints differ", of(80, 80, 81, 79, 80, 80), true, false, verdictUnresolved},
		{"spread wider than the bound", of(80, 60, 100, 80, 120, 70), true, true, verdictUnresolved},
		{"wide spread but every run better", of(200, 150, 250, 200, 300, 170), true, true, verdictBetter},
	}
	for _, c := range cases {
		got, _ := compareMetric(base, c.cur, c.higher, 0.10, c.same)
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if _, change := compareMetric(base, of(80), true, 0.10, true); !near(change, 0.2) {
		t.Errorf("change = %v, want 0.2 worse", change)
	}
	if m := fastest([]float64{3, 5, 4}, "1/s", true); m.Value != 5 || len(m.Samples) != 3 {
		t.Errorf("fastest throughput = %+v, want 5 with 3 samples", m)
	}
	if m := fastest([]float64{3, 5, 4}, "s", false); m.Value != 3 {
		t.Errorf("fastest cost = %+v, want 3", m)
	}
}

func TestFailedShareAccounting(t *testing.T) {
	if n := failedOps(1000, 0, true); n != 0 {
		t.Errorf("clean pass failed %d operations", n)
	}
	if n := failedOps(1000, 7, true); n != 7 {
		t.Errorf("pass that lost 7 experiments failed %d", n)
	}
	if n := failedOps(1000, 0, false); n != 1000 {
		t.Errorf("pass with a failed output check failed %d of 1000", n)
	}
	res := &runResult{Correct: true}
	log := &passLog{res: res}
	good := passResult{ops: 10, ok: true}
	log.add(good, 1, 1, "pass 0")
	drift := good
	drift.exact.Counts.SDC = 1 // statistics differ from the first pass
	log.add(drift, 1, 1, "pass 1")
	if res.Attempted != 20 || res.Failed != 10 || res.Correct {
		t.Errorf("attempted %d failed %d correct %v, want 20 10 false", res.Attempted, res.Failed, res.Correct)
	}
}

func TestCompareLedgersFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	mk := func(file string, f fingerprint, expPerS float64) string {
		set := resultSet{Fingerprint: f, Seed: defaultSeed, Untraced: map[string]*runResult{}}
		for _, name := range workloadNames {
			r := &runResult{Workload: name, Metrics: map[string]metric{}}
			for _, d := range endToEndMetrics {
				r.Metrics[d.Name] = metric{Value: 1, Unit: d.Unit}
			}
			r.Metrics["exp_per_s"] = metric{Value: expPerS, Unit: "1/s"}
			set.Untraced[name] = r
		}
		raw, err := json.Marshal(&set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := hostFingerprint()
	other := host
	other.NProc += 2
	base := mk("base.json", host, 100)

	var out bytes.Buffer
	ok, err := compareLedgers(&out, base, mk("slow.json", host, 50))
	if err != nil || ok {
		t.Errorf("same host, half the throughput: ok=%v err=%v, want a failure", ok, err)
	}
	hasVerdict := func(v string) bool { return strings.Contains(out.String(), "  "+v+"\n") }
	if !hasVerdict(verdictWorse) {
		t.Errorf("no %q verdict in:\n%s", verdictWorse, out.String())
	}
	out.Reset()
	ok, err = compareLedgers(&out, base, mk("elsewhere.json", other, 50))
	if err != nil || !ok {
		t.Errorf("different host: ok=%v err=%v, want unresolved and no failure", ok, err)
	}
	if hasVerdict(verdictWorse) || hasVerdict(verdictBetter) || !hasVerdict(verdictUnresolved) {
		t.Errorf("different hosts must read unresolved, never better or worse:\n%s", out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables in
// step, and inside the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %d = %q (%d chars of why), want %q with the table's why", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d = %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the driver's limits", len(b.PerLayer), len(b.EndToEnd))
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "perfledger" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// TestShortSmoke runs one tiny pass of every workload, and the traced run
// with every probe on one of them, so each code path of the harness is
// exercised by `go test`.
func TestShortSmoke(t *testing.T) {
	for _, name := range workloadNames {
		res, err := run(context.Background(), runConfig{workload: name, seed: 11, short: true,
			tmp: t.TempDir(), log: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		for _, d := range endToEndMetrics {
			if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", name, d.Name, m, d.Unit)
			}
		}
	}
	dir := t.TempDir()
	res, err := run(context.Background(), runConfig{workload: "service-sharded", seed: 11, short: true,
		traced: true, tmp: t.TempDir(), spansDir: dir, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced: correct=%v failed=%d notes=%v", res.Correct, res.Failed, res.Notes)
	}
	for _, d := range perLayerMetrics {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("traced run did not report %s", d.Name)
		}
	}
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("traced run reported %d metrics, want exactly the %d per-layer ones", len(res.Metrics), len(perLayerMetrics))
	}
	if len(res.HotSpots) == 0 {
		t.Error("traced run ranked no hot spot")
	}
	if fi, err := os.Stat(filepath.Join(dir, "service-sharded.spans.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

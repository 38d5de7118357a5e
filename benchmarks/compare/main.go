// Command compare gates the CI benchmark steps against the committed
// baseline in benchmarks/baseline.json. It replaces the old hard-coded
// BENCH_OBS_ENFORCE / BENCH_FORK_ENFORCE thresholds: every gated metric
// lives in the baseline file with a direction, and a run fails when a
// metric regresses past the tolerance (default 15%).
//
// Only dimensionless ratios are gated (engine speedups, overhead ratios):
// they are stable across runner hardware, unlike raw nanoseconds, which
// the benchmark JSON artifacts still carry for human cross-commit
// comparison.
//
// Usage:
//
//	go run ./benchmarks/compare -baseline benchmarks/baseline.json BENCH_*.json
//	go run ./benchmarks/compare -baseline benchmarks/baseline.json -promote BENCH_*.json
//
// -promote rewrites the baseline's values from the current run (directions,
// tolerances and floors are preserved; a metric whose min_cpus exceeds the
// recording host's CPU count is not written); benchmarks/promote.sh wraps it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
)

// Baseline is the committed benchmark contract.
type Baseline struct {
	// Tolerance is the fractional regression allowed before the gate
	// fails (0.15 = 15%).
	Tolerance float64 `json:"tolerance"`
	// Metrics maps a metric name (a key in one of the benchmark JSON
	// artifacts) to its expected value and direction.
	Metrics map[string]Metric `json:"metrics"`
}

// Metric is one gated benchmark number.
type Metric struct {
	// Value is the promoted baseline measurement. A metric without one is
	// floor-only: no recording host has produced a number to be relative
	// to, so only Min is enforced.
	Value float64 `json:"value,omitempty"`
	// Direction is "higher" (bigger is better: speedups) or "lower"
	// (smaller is better: overhead ratios).
	Direction string `json:"direction"`
	// Tolerance, when positive, overrides the file-level tolerance for
	// this one metric — e.g. a hard ≤5% budget on tracing overhead while
	// engine speedups keep the looser default.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Min, when positive, is an absolute floor on top of the relative
	// check: the run fails if the measured value dips below it no matter
	// what the baseline value drifted to. Used for contractual numbers
	// like "parallel stepping reaches >=1.8x at 4 workers".
	Min float64 `json:"min,omitempty"`
	// MinCPUs, when positive, makes the metric conditional on hardware:
	// it is checked — and promoted — only when the pooled artifacts report
	// at least this many CPUs under "parallel_bench_cpus". A laptop or
	// single-core CI leg cannot measure a 4-worker speedup, so the gate
	// skips (with a note) instead of failing on numbers the machine cannot
	// produce, and -promote refuses to record them.
	MinCPUs int `json:"min_cpus,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmarks/compare: ")
	basePath := flag.String("baseline", "benchmarks/baseline.json", "committed baseline file")
	doPromote := flag.Bool("promote", false, "rewrite the baseline's values from the current artifacts")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: compare [-promote] [-baseline file] BENCH_*.json...")
	}

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		log.Fatalf("%s: %v", *basePath, err)
	}
	if base.Tolerance <= 0 {
		base.Tolerance = 0.15
	}

	// Pool every metric of every artifact; later files win on key clashes
	// (the artifacts' key sets are disjoint in practice).
	current := map[string]float64{}
	for _, path := range flag.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		for k, v := range m {
			if f, ok := v.(float64); ok {
				current[k] = f
			}
		}
	}

	if *doPromote {
		if err := promote(os.Stdout, &base, current); err != nil {
			log.Fatal(err)
		}
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*basePath, append(out, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("promoted into %s\n", *basePath)
		return
	}

	failed, err := gate(os.Stdout, base, current)
	if err != nil {
		log.Fatal(err)
	}
	if failed > 0 {
		log.Fatalf("%d metric(s) regressed past tolerance from %s; "+
			"if intentional, re-baseline with benchmarks/promote.sh",
			failed, *basePath)
	}
	fmt.Println("all benchmark metrics within tolerance")
}

// sortedNames returns the baseline's metric names in a stable order.
func sortedNames(base Baseline) []string {
	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// recordedCPUs reports how many CPUs the host that produced the artifacts
// had, and whether that is enough to measure m (too few CPUs cannot
// produce a parallel speedup).
func recordedCPUs(m Metric, current map[string]float64) (cpus float64, enough bool) {
	if m.MinCPUs <= 0 {
		return 0, true
	}
	cpus, ok := current["parallel_bench_cpus"]
	return cpus, ok && int(cpus) >= m.MinCPUs
}

// promote overwrites each baseline value with the current measurement,
// keeping directions, tolerances and floors. A metric the recording host
// had too few CPUs to measure is left exactly as committed.
func promote(w io.Writer, base *Baseline, current map[string]float64) error {
	for _, name := range sortedNames(*base) {
		m := base.Metrics[name]
		if cpus, ok := recordedCPUs(m, current); !ok {
			fmt.Fprintf(w, "%-22s not promoted (needs >=%d CPUs, artifacts report %.0f)\n",
				name, m.MinCPUs, cpus)
			continue
		}
		got, ok := current[name]
		if !ok {
			return fmt.Errorf("metric %q not present in the given artifacts; run every benchmark before promoting", name)
		}
		fmt.Fprintf(w, "%-22s %.4f -> %.4f\n", name, m.Value, got)
		m.Value = got
		base.Metrics[name] = m
	}
	return nil
}

// mark is the line prefix for a checked metric.
func mark(bad bool) string {
	if bad {
		return "FAIL"
	}
	return "ok  "
}

// gate checks every baseline metric against the pooled artifact values,
// printing one line per metric, and returns how many regressed.
func gate(w io.Writer, base Baseline, current map[string]float64) (failed int, err error) {
	for _, name := range sortedNames(base) {
		m := base.Metrics[name]
		if cpus, ok := recordedCPUs(m, current); !ok {
			fmt.Fprintf(w, "skip %-22s needs >=%d CPUs, artifacts report %.0f; not enforced on this machine\n",
				name, m.MinCPUs, cpus)
			continue
		}
		got, ok := current[name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: metric missing from the benchmark artifacts\n", name)
			failed++
			continue
		}
		if m.Value == 0 {
			if m.Min <= 0 || m.Direction != "higher" {
				return failed, fmt.Errorf("metric %q has no value: it needs a positive min and direction \"higher\"", name)
			}
			bad := got < m.Min
			if bad {
				failed++
			}
			fmt.Fprintf(w, "%s %-22s floor %.4f, got %.4f (no baseline value recorded)\n",
				mark(bad), name, m.Min, got)
			continue
		}
		tol := base.Tolerance
		if m.Tolerance > 0 {
			tol = m.Tolerance
		}
		var bad bool
		var bound float64
		switch m.Direction {
		case "higher":
			bound = max(m.Value*(1-tol), m.Min) // the larger of the two binds
			bad = got < bound
		case "lower":
			bound = m.Value * (1 + tol)
			bad = got > bound
		default:
			return failed, fmt.Errorf("metric %q: unknown direction %q (want \"higher\" or \"lower\")", name, m.Direction)
		}
		if bad {
			failed++
		}
		fmt.Fprintf(w, "%s %-22s baseline %.4f, got %.4f (%s is better, tolerance %.0f%%, bound %.4f)\n",
			mark(bad), name, m.Value, got, m.Direction, tol*100, bound)
	}
	return failed, nil
}

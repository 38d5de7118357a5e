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
// -promote rewrites the baseline's values from the current run (directions
// and tolerances are preserved); benchmarks/promote.sh wraps it.
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
	// Value is the promoted baseline measurement.
	Value float64 `json:"value"`
	// Direction is "higher" (bigger is better: speedups) or "lower"
	// (smaller is better: overhead ratios).
	Direction string `json:"direction"`
	// Tolerance, when positive, overrides the file-level tolerance for
	// this one metric — e.g. a hard ≤5% budget on tracing overhead while
	// engine speedups keep the looser default.
	Tolerance float64 `json:"tolerance,omitempty"`
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

// promote overwrites each baseline value with the current measurement,
// keeping directions and tolerances.
func promote(w io.Writer, base *Baseline, current map[string]float64) error {
	for _, name := range sortedNames(*base) {
		m := base.Metrics[name]
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
		got, ok := current[name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: metric missing from the benchmark artifacts\n", name)
			failed++
			continue
		}
		if m.Value == 0 {
			return failed, fmt.Errorf("metric %q has no baseline value", name)
		}
		tol := base.Tolerance
		if m.Tolerance > 0 {
			tol = m.Tolerance
		}
		var bad bool
		var bound float64
		switch m.Direction {
		case "higher":
			bound = m.Value * (1 - tol)
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

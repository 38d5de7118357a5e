// Command perfledger is the repository's performance ledger: four
// workloads, six end-to-end metrics and the per-layer costs behind them.
//
// With -workload it runs one workload in this process and prints, as the
// last line of standard output, the JSON object BENCHMARK.json's driver
// reads. Without it, it runs every workload in a child process each,
// prints the whole ledger and writes perfledger/current/ledger.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload: golden-12, campaign-late, eval-matrix or service-sharded")
		seed     = flag.Int64("seed", defaultSeed, "workload seed; expected.json is compared only for the default")
		seconds  = flag.Float64("seconds", runSeconds, "seconds of timed passes per workload")
		trace    = flag.Int("trace", 0, "with -workload: 1 makes the traced run that yields the per-layer metrics")
		traced   = flag.Bool("traced", false, "ledger mode: also make the traced run of every workload")
		record   = flag.Bool("record", false, "ledger mode: rewrite expected.json from this run (default seed only)")
		dir      = flag.String("dir", "perfledger/current", "ledger mode: where the result set and spans are written")
		result   = flag.String("result", "", "with -workload: also write the full result as JSON to this file")
		spansDir = flag.String("spans", "", "with -workload -trace 1: directory for <workload>.spans.jsonl")
		compare  = flag.Bool("compare", false, "compare two result sets: perfledger -compare BASE.json CURRENT.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the harness's metric tables define it")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *manifest:
		if err := printManifest(os.Stdout); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: perfledger -compare BASE.json CURRENT.json"))
		}
		ok, err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "":
		if err := runLedger(os.Stdout, *dir, *seed, *seconds, *traced, *record); err != nil {
			fatal(err)
		}
	default:
		if err := runOne(ctx, *name, *seed, *seconds, *trace == 1, *result, *spansDir); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfledger:", err)
	os.Exit(1)
}

// scratchDir is where the durable store of service-sharded lives: inside
// the checkout's build directory, never in the system's temp directory.
func scratchDir() (string, error) {
	base := os.Getenv("PERFLEDGER_TMP")
	if base == "" {
		base = filepath.Join(".bench_build", "perfledger")
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func runOne(ctx context.Context, name string, seed int64, seconds float64, traced bool, resultPath, spansDir string) error {
	tmp, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if traced && spansDir == "" {
		spansDir = filepath.Join("perfledger", "current")
	}
	res, err := run(ctx, runConfig{workload: name, seed: seed, seconds: seconds, traced: traced,
		tmp: tmp, spansDir: spansDir, log: os.Stdout})
	if err != nil {
		return err
	}
	printRun(res)
	if resultPath != "" {
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(resultPath, raw, 0o644); err != nil {
			return err
		}
	}
	// The driver's line: exactly these keys, every metric of the run as
	// {"value", "unit"} (a metric without samples encodes as just that).
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// printRun prints every metric of a run by name with its unit.
func printRun(res *runResult) {
	printFingerprint(os.Stdout, hostFingerprint())
	mode := "untraced"
	defs := endToEndMetrics
	if res.Traced {
		mode, defs = "traced", perLayerMetrics
	}
	fmt.Printf("%s seed %d %s: %d passes, %d operations attempted, %d failed, correct=%v\n",
		res.Workload, res.Seed, mode, res.Passes, res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Printf("  %-32s %14.6g %-8s", d.Name, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			fmt.Printf(" %d samples: median %.6g, spread %.1f%%", len(m.Samples), median(m.Samples), 100*spread(m.Samples))
		}
		fmt.Println()
	}
}

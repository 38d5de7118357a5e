package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultSet is one full ledger: every workload, run in its own process on
// one host. Claim stays null: the ledger records numbers, it claims no gain.
type resultSet struct {
	Fingerprint fingerprint           `json:"fingerprint"`
	Seed        int64                 `json:"seed"`
	Seconds     float64               `json:"seconds"`
	Claim       *string               `json:"claim"`
	Untraced    map[string]*runResult `json:"untraced"`
	Traced      map[string]*runResult `json:"traced,omitempty"`
}

// runLedger runs each workload in a child process of this same binary,
// untraced and (with traced) once more traced, prints every metric by name
// with its unit, and writes the result set to dir/ledger.json.
func runLedger(out io.Writer, dir string, seed int64, seconds float64, traced, record bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	set := resultSet{Fingerprint: hostFingerprint(), Seed: seed, Seconds: seconds,
		Untraced: map[string]*runResult{}}
	if traced {
		set.Traced = map[string]*runResult{}
	}
	child := func(name string, trace int) (*runResult, error) {
		path := filepath.Join(dir, fmt.Sprintf("%s.trace%d.json", name, trace))
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-result", path, "-spans", dir)
		cmd.Stdout, cmd.Stderr = out, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %d): %v", name, trace, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		os.Remove(path)
		var r runResult
		return &r, json.Unmarshal(raw, &r)
	}
	ok := true
	for _, name := range workloadNames {
		fmt.Fprintf(out, "== %s\n", name)
		r, err := child(name, 0)
		if err != nil {
			return err
		}
		set.Untraced[name] = r
		ok = ok && r.Correct
		if traced {
			if r, err = child(name, 1); err != nil {
				return err
			}
			set.Traced[name] = r
			ok = ok && r.Correct
		}
	}
	printLedger(out, &set)
	raw, err := json.MarshalIndent(&set, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "ledger.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	if !ok {
		return fmt.Errorf("a workload failed its output checks")
	}
	if record {
		if seed != defaultSeed {
			return fmt.Errorf("-record needs the default seed %d", defaultSeed)
		}
		path := filepath.Join(filepath.Dir(dir), "expected.json")
		if err := writeExpected(path, seed, set.Untraced); err != nil {
			return err
		}
		fmt.Fprintf(out, "recorded %s (rebuild to embed it)\n", path)
	}
	return nil
}

func printFingerprint(out io.Writer, f fingerprint) {
	fmt.Fprintf(out, "host: %d cpu, GOMAXPROCS %d, %s %s/%s, %s\n",
		f.NProc, f.GOMAXPROCS, f.GoVersion, f.GOOS, f.GOARCH, f.CPUModel)
}

func printLedger(out io.Writer, set *resultSet) {
	fmt.Fprintln(out, "== ledger")
	printFingerprint(out, set.Fingerprint)
	fmt.Fprintf(out, "seed %d, %.0f s per workload, claim: none\n", set.Seed, set.Seconds)
	fmt.Fprintf(out, "%-18s", "end to end")
	for _, name := range workloadNames {
		fmt.Fprintf(out, " %16s", name)
	}
	fmt.Fprintln(out)
	row := func(runs map[string]*runResult, d metricDef) {
		fmt.Fprintf(out, "%-28s %-8s", d.Name, d.Unit)
		for _, name := range workloadNames {
			fmt.Fprintf(out, " %14.6g", runs[name].Metrics[d.Name].Value)
		}
		fmt.Fprintln(out)
	}
	for _, d := range endToEndMetrics {
		row(set.Untraced, d)
	}
	fmt.Fprintf(out, "%-28s %-8s", "passes / attempted / failed", "")
	for _, name := range workloadNames {
		r := set.Untraced[name]
		fmt.Fprintf(out, " %14s", fmt.Sprintf("%d/%d/%d", r.Passes, r.Attempted, r.Failed))
	}
	fmt.Fprintln(out)
	if set.Traced == nil {
		return
	}
	fmt.Fprintln(out, "per layer (traced run)")
	for _, d := range perLayerMetrics {
		row(set.Traced, d)
	}
	for _, name := range workloadNames {
		fmt.Fprintf(out, "hot spots on %s:", name)
		for _, h := range set.Traced[name].HotSpots {
			fmt.Fprintf(out, "  %s/%s %.0f ms (%.0f%%)", h.Layer, h.Name, h.SelfMS, 100*h.Share)
		}
		fmt.Fprintln(out)
	}
}

// compareLedgers prints a verdict for every end-to-end metric on every
// workload and whether the exact statistics agree. It returns false when a
// metric is worse than its bound or an exact statistic differs.
func compareLedgers(out io.Writer, basePath, curPath string) (bool, error) {
	load := func(path string) (*resultSet, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s resultSet
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return &s, nil
	}
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	cur, err := load(curPath)
	if err != nil {
		return false, err
	}
	same := base.Fingerprint == cur.Fingerprint
	if !same {
		fmt.Fprintln(out, "host fingerprints differ: every timing is unresolved")
		printFingerprint(out, base.Fingerprint)
		printFingerprint(out, cur.Fingerprint)
	}
	fmt.Fprintln(out, "change is the share of the base value the metric got worse by (negative: better)")
	ok := true
	for _, name := range workloadNames {
		b, c := base.Untraced[name], cur.Untraced[name]
		if b == nil || c == nil {
			fmt.Fprintf(out, "%-16s missing from one side\n", name)
			ok = false
			continue
		}
		for _, d := range endToEndMetrics {
			verdict, change := compareMetric(b.Metrics[d.Name], c.Metrics[d.Name], d.higher(), d.Bound, same)
			fmt.Fprintf(out, "%-16s %-18s %12.6g -> %12.6g  %+6.1f%% (bound %.0f%%)  %s\n",
				name, d.Name, b.Metrics[d.Name].Value, c.Metrics[d.Name].Value, 100*change, 100*d.Bound, verdict)
			ok = ok && verdict != verdictWorse
		}
		if base.Seed == cur.Seed && base.Fingerprint.platform() == cur.Fingerprint.platform() {
			if !b.Exact.equal(c.Exact) {
				fmt.Fprintf(out, "%-16s exact statistics DIFFER\n", name)
				ok = false
			}
			if bt, ct := base.Traced[name], cur.Traced[name]; bt != nil && ct != nil {
				for n := range exactMetrics {
					if bt.Metrics[n].Value != ct.Metrics[n].Value {
						fmt.Fprintf(out, "%-16s %s DIFFERS: %v -> %v\n", name, n, bt.Metrics[n].Value, ct.Metrics[n].Value)
						ok = false
					}
				}
			}
		}
	}
	return ok, nil
}

// Command gpufi-report parses gpuFI-4 JSONL campaign logs — the paper's
// parser module — and prints the aggregated fault-effect statistics per
// campaign, plus a combined summary.
//
// "-" reads a log from stdin, so journals can be piped straight out of a
// running gpufi-serve:
//
//	curl -s localhost:8080/v1/campaigns/<id>/log | gpufi-report -
//
// A log with a torn final line (a campaign killed mid-write) is salvaged
// with a warning; a corrupt record anywhere else is reported with its
// line number. The salvaged/dropped record counts are printed to stderr;
// with -strict a drop exits non-zero after rendering, so pipelines can
// refuse to treat an incomplete journal as authoritative.
//
// With -why the report appends a fault-propagation table built from the
// Why annotations that traced campaigns (gpufi -trace, spec "trace":true)
// journal per experiment — e.g. what share of a structure's masked faults
// were never read versus overwritten before a read.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"gpufi"
	"gpufi/internal/cli"
	"gpufi/internal/obs"
	"gpufi/internal/report"
)

func main() {
	os.Exit(cli.Exit("gpufi-report", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// options is gpufi-report's command line.
type options struct {
	csv, strict, why, ci bool
	spans                string
}

// flags declares the command line on o.
func (o *options) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("gpufi-report", flag.ContinueOnError)
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of an aligned table")
	fs.BoolVar(&o.strict, "strict", false, "exit non-zero when torn-tail salvage dropped records")
	fs.BoolVar(&o.why, "why", false, "append the fault-propagation breakdown (campaigns journaled with tracing)")
	fs.BoolVar(&o.ci, "ci", false, "append 99% Wilson confidence intervals per outcome proportion")
	fs.StringVar(&o.spans, "spans", "", "render a phase breakdown from a campaign spans.jsonl timeline and exit")
	return fs
}

// render writes tb to w, as CSV when asked.
func render(w io.Writer, tb *report.Table, csvOut bool) error {
	if csvOut {
		return tb.WriteCSV(w)
	}
	return tb.Render(w)
}

// renderWhy aggregates the per-experiment Why annotations that traced
// campaigns journal ("masked:never-read", "sdc:read", ...) into a
// propagation table per structure: how each structure's faults actually
// met their fate. Experiments from untraced campaigns group under
// "(untraced)".
func renderWhy(w io.Writer, all []*gpufi.CampaignResult, csvOut bool) error {
	type key struct{ structure, why string }
	counts := map[key]int{}
	totals := map[string]int{}
	for _, r := range all {
		for i := range r.Exps {
			w := r.Exps[i].Why
			if w == "" {
				w = "(untraced)"
			}
			counts[key{r.Structure, w}]++
			totals[r.Structure]++
		}
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].structure != keys[b].structure {
			return keys[a].structure < keys[b].structure
		}
		return keys[a].why < keys[b].why
	})
	tb := &report.Table{
		Title:  "fault propagation (why each outcome)",
		Header: []string{"structure", "why", "count", "share"},
	}
	for _, k := range keys {
		n := counts[k]
		tb.AddRow(k.structure, k.why, fmt.Sprint(n),
			fmt.Sprintf("%.1f%%", 100*float64(n)/float64(totals[k.structure])))
	}
	return render(w, tb, csvOut)
}

// renderSpans aggregates a campaign's distributed-tracing timeline
// (spans.jsonl, from GET /v1/campaigns/{id}/trace?format=jsonl or the
// store directory), one record per span (obs.ReadSpans), into a phase
// breakdown: per span name, how many spans ran, how much cumulative time
// they took, and what share of the campaign's wall clock that is. A cluster
// span's fork_ns, execute_ns and classify_ns fold into the engine.fork,
// engine.execute and engine.classify rows, counting its experiments.
func renderSpans(w io.Writer, path string, csvOut bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s: no span records", path)
	}

	count, totalUS := map[string]int{}, map[string]int64{}
	var wallStart, wallEnd int64
	for i, rec := range spans {
		count[rec.Name]++
		totalUS[rec.Name] += rec.DurUS
		n, _ := strconv.Atoi(rec.Attrs["experiments"])
		for _, p := range []string{"fork", "execute", "classify"} {
			if ns, err := strconv.ParseInt(rec.Attrs[p+"_ns"], 10, 64); err == nil {
				count["engine."+p] += n
				totalUS["engine."+p] += ns / 1000
			}
		}
		if i == 0 || rec.StartUS < wallStart {
			wallStart = rec.StartUS
		}
		if e := rec.StartUS + rec.DurUS; e > wallEnd {
			wallEnd = e
		}
	}
	wallUS := wallEnd - wallStart
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Strings(names) // ties in time go by name
	sort.SliceStable(names, func(a, b int) bool { return totalUS[names[a]] > totalUS[names[b]] })

	tb := &report.Table{
		Title:  fmt.Sprintf("span phases (%d spans, %.1f ms wall clock)", len(spans), float64(wallUS)/1e3),
		Header: []string{"phase", "spans", "total ms", "mean ms", "wall share"},
	}
	for _, n := range names {
		share := 0.0
		if wallUS > 0 {
			share = 100 * float64(totalUS[n]) / float64(wallUS)
		}
		tb.AddRow(n, fmt.Sprint(count[n]),
			fmt.Sprintf("%.2f", float64(totalUS[n])/1e3),
			fmt.Sprintf("%.3f", float64(totalUS[n])/1e3/float64(count[n])),
			fmt.Sprintf("%.1f%%", share))
	}
	return render(w, tb, csvOut)
}

// run renders the logs args names to stdout; warnings and the salvage
// count go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := o.flags()
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if o.spans != "" {
		return renderSpans(stdout, o.spans, o.csv)
	}
	if fs.NArg() == 0 {
		return errors.New(`usage: gpufi-report [-csv] [-strict] [-why] log.jsonl... ("-" reads stdin; -spans spans.jsonl for timelines)`)
	}

	var all []*gpufi.CampaignResult
	dropped := 0 // torn tail records cut during salvage (at most one per source)
	for _, path := range fs.Args() {
		name, r := path, io.Reader(os.Stdin)
		if path == "-" {
			name = "stdin"
		} else {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		// Only a crash-torn final record is tolerated; a corrupt one
		// anywhere else is named by its line.
		res, torn, err := gpufi.ParseLogLenient(r)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if torn {
			dropped++
			fmt.Fprintf(stderr, "gpufi-report: warning: %s: final record is torn (interrupted write?); ignoring it\n", name)
		}
		all = append(all, res...)
	}
	if len(all) == 0 {
		return errors.New("no campaigns found in the given logs")
	}

	header := []string{"app", "gpu", "kernel", "structure", "bits", "runs",
		"Masked", "SDC", "Crash", "Timeout", "Perf", "FR", "99% margin"}
	if o.ci {
		header = append(header, "SDC 99% CI", "Crash 99% CI", "FR 99% CI")
	}
	tb := &report.Table{
		Title:  fmt.Sprintf("%d campaign(s)", len(all)),
		Header: header,
	}
	// row renders one tally, with the -ci interval columns appended when
	// asked: the 99% Wilson interval on each outcome's proportion, the level
	// of the margin column, so a report reader sees not just the point
	// estimate but how tight it is.
	row := func(c gpufi.Counts) []string {
		cells := []string{
			fmt.Sprint(c.Masked), fmt.Sprint(c.SDC), fmt.Sprint(c.Crash),
			fmt.Sprint(c.Timeout), fmt.Sprint(c.Performance),
			fmt.Sprintf("%.4f", c.FailureRatio()),
			fmt.Sprintf("±%.4f", gpufi.Margin(c.Failures(), c.Total(), 0.99)),
		}
		if o.ci {
			interval := func(k int) string {
				lo, hi := gpufi.Wilson(k, c.Total(), 0.99)
				return fmt.Sprintf("[%.4f, %.4f]", lo, hi)
			}
			cells = append(cells, interval(c.SDC), interval(c.Crash), interval(c.Failures()))
		}
		return cells
	}
	var total gpufi.Counts
	for _, r := range all {
		c := r.Counts
		cells := append([]string{r.App, r.GPU, r.Kernel, r.Structure,
			fmt.Sprint(r.Bits), fmt.Sprint(c.Total())}, row(c)...)
		tb.AddRow(cells...)
		total.Merge(c)
	}
	tb.AddRow(append([]string{"ALL", "", "", "", "", fmt.Sprint(total.Total())}, row(total)...)...)

	if err := render(stdout, tb, o.csv); err != nil {
		return err
	}
	if o.why {
		fmt.Fprintln(stdout)
		if err := renderWhy(stdout, all, o.csv); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "gpufi-report: %d record(s) salvaged, %d torn record(s) dropped\n",
		total.Total(), dropped)
	if o.strict && dropped > 0 {
		// Strict mode: pipelines treating the report as authoritative must
		// notice that the journal was incomplete.
		return fmt.Errorf("strict: %d torn record(s) dropped during salvage", dropped)
	}
	return nil
}

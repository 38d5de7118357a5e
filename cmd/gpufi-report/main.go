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
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"gpufi"
	"gpufi/internal/obs"
	"gpufi/internal/report"
)

// parseSource reads one log, naming the offending line on failure and
// tolerating only a crash-torn final record. dropped reports whether a
// torn tail record was cut from this source.
func parseSource(name string, r io.Reader) ([]*gpufi.CampaignResult, bool) {
	res, truncated, err := gpufi.ParseLogLenient(r)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	if truncated {
		fmt.Fprintf(os.Stderr, "gpufi-report: warning: %s: final record is torn (interrupted write?); ignoring it\n", name)
	}
	return res, truncated
}

// renderWhy aggregates the per-experiment Why annotations that traced
// campaigns journal ("masked:never-read", "sdc:read", ...) into a
// propagation table per structure: how each structure's faults actually
// met their fate. Experiments from untraced campaigns group under
// "(untraced)".
func renderWhy(all []*gpufi.CampaignResult, csvOut bool) error {
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
	if csvOut {
		return tb.WriteCSV(os.Stdout)
	}
	return tb.Render(os.Stdout)
}

// renderSpans aggregates a campaign's distributed-tracing timeline
// (spans.jsonl, from GET /v1/campaigns/{id}/trace?format=jsonl or the
// store directory) into a phase breakdown: per span name, how many spans
// ran, how much cumulative time they took, and what share of the
// campaign's wall clock that is. Provisional announce records (a parent
// span persisted early so a crash never orphans its children) are
// collapsed into their final record first.
func renderSpans(path string, csvOut bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	best := map[string]obs.SpanRecord{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn tail or noise; the rest of the timeline still renders
		}
		if rec.Span == "" {
			continue
		}
		prev, ok := best[rec.Span]
		if !ok {
			order = append(order, rec.Span)
			best[rec.Span] = rec
		} else if rec.DurUS > prev.DurUS {
			best[rec.Span] = rec
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(order) == 0 {
		return fmt.Errorf("%s: no span records", path)
	}

	type agg struct {
		count         int
		totalUS       int64
		minStart, end int64
	}
	phases := map[string]*agg{}
	var wallStart, wallEnd int64
	for i, id := range order {
		rec := best[id]
		a := phases[rec.Name]
		if a == nil {
			a = &agg{minStart: rec.StartUS}
			phases[rec.Name] = a
		}
		a.count++
		a.totalUS += rec.DurUS
		if rec.StartUS < a.minStart {
			a.minStart = rec.StartUS
		}
		if e := rec.StartUS + rec.DurUS; e > a.end {
			a.end = e
		}
		if i == 0 || rec.StartUS < wallStart {
			wallStart = rec.StartUS
		}
		if e := rec.StartUS + rec.DurUS; e > wallEnd {
			wallEnd = e
		}
	}
	wallUS := wallEnd - wallStart
	names := make([]string, 0, len(phases))
	for n := range phases {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		return phases[names[a]].totalUS > phases[names[b]].totalUS
	})

	tb := &report.Table{
		Title:  fmt.Sprintf("span phases (%d spans, %.1f ms wall clock)", len(order), float64(wallUS)/1e3),
		Header: []string{"phase", "spans", "total ms", "mean ms", "wall share"},
	}
	for _, n := range names {
		a := phases[n]
		share := 0.0
		if wallUS > 0 {
			share = 100 * float64(a.totalUS) / float64(wallUS)
		}
		tb.AddRow(n, fmt.Sprint(a.count),
			fmt.Sprintf("%.2f", float64(a.totalUS)/1e3),
			fmt.Sprintf("%.3f", float64(a.totalUS)/1e3/float64(a.count)),
			fmt.Sprintf("%.1f%%", share))
	}
	if csvOut {
		return tb.WriteCSV(os.Stdout)
	}
	return tb.Render(os.Stdout)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi-report: ")
	csvOut := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	strict := flag.Bool("strict", false, "exit non-zero when torn-tail salvage dropped records")
	why := flag.Bool("why", false, "append the fault-propagation breakdown (campaigns journaled with tracing)")
	ci := flag.Bool("ci", false, "append Wilson confidence intervals per outcome proportion")
	conf := flag.Float64("confidence", 0.99, "confidence level for -ci intervals")
	spans := flag.String("spans", "", "render a phase breakdown from a campaign spans.jsonl timeline and exit")
	flag.Parse()
	if *spans != "" {
		if err := renderSpans(*spans, *csvOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() == 0 {
		log.Fatal(`usage: gpufi-report [-csv] [-strict] [-why] log.jsonl... ("-" reads stdin; -spans spans.jsonl for timelines)`)
	}

	var all []*gpufi.CampaignResult
	dropped := 0 // torn tail records cut during salvage (at most one per source)
	for _, path := range flag.Args() {
		if path == "-" {
			res, cut := parseSource("stdin", os.Stdin)
			if cut {
				dropped++
			}
			all = append(all, res...)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		res, cut := parseSource(path, f)
		f.Close()
		if cut {
			dropped++
		}
		all = append(all, res...)
	}
	if len(all) == 0 {
		log.Fatal("no campaigns found in the given logs")
	}

	header := []string{"app", "gpu", "kernel", "structure", "bits", "runs",
		"Masked", "SDC", "Crash", "Timeout", "Perf", "FR", "99% margin"}
	if *ci {
		pct := fmt.Sprintf("%g%%", *conf*100)
		header = append(header, "SDC "+pct+" CI", "Crash "+pct+" CI", "FR "+pct+" CI")
	}
	tb := &report.Table{
		Title:  fmt.Sprintf("%d campaign(s)", len(all)),
		Header: header,
	}
	// row renders one tally, with the -ci interval columns appended when
	// asked: the Wilson interval on each outcome's proportion, so a report
	// reader sees not just the point estimate but how tight it is.
	row := func(c gpufi.Counts) []string {
		cells := []string{
			fmt.Sprint(c.Masked), fmt.Sprint(c.SDC), fmt.Sprint(c.Crash),
			fmt.Sprint(c.Timeout), fmt.Sprint(c.Performance),
			fmt.Sprintf("%.4f", c.FailureRatio()),
			fmt.Sprintf("±%.4f", gpufi.Margin(c.Failures(), c.Total(), 0.99)),
		}
		if *ci {
			interval := func(k int) string {
				lo, hi := gpufi.Wilson(k, c.Total(), *conf)
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

	var err error
	if *csvOut {
		err = tb.WriteCSV(os.Stdout)
	} else {
		err = tb.Render(os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *why {
		fmt.Println()
		if err := renderWhy(all, *csvOut); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "gpufi-report: %d record(s) salvaged, %d torn record(s) dropped\n",
		total.Total(), dropped)
	if *strict && dropped > 0 {
		// Strict mode: pipelines treating the report as authoritative must
		// notice that the journal was incomplete.
		log.Fatalf("strict: %d torn record(s) dropped during salvage", dropped)
	}
}

// Command gpufi-figures regenerates every table and figure of the paper's
// evaluation end to end: it profiles the twelve benchmarks on the three
// GPU models, runs the campaign matrix, and renders each artifact as text
// tables and ASCII charts. Absolute numbers come from this repository's
// simulator; the shapes are what reproduce the paper.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gpufi"
	"gpufi/internal/cli"
	"gpufi/internal/report"
)

// evalKey caches evaluations across figures.
type evalKey struct {
	app  string
	gpu  string
	bits int
}

type driver struct {
	options
	apps  []string
	out   io.Writer // the artifacts
	log   io.Writer // progress
	cache map[evalKey]*gpufi.AppEval
}

// emit renders a table to the output and, when -csv is set, writes it as
// <csvDir>/<name>.csv for machine consumption.
func (d *driver) emit(name string, tb *report.Table) error {
	if err := tb.Render(d.out); err != nil {
		return err
	}
	d.printf("\n")
	if d.csvDir == "" {
		return nil
	}
	f, err := os.Create(d.csvDir + "/" + name + ".csv")
	if err != nil {
		return err
	}
	if err := tb.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (d *driver) eval(appName, gpuName string, bits int) (*gpufi.AppEval, error) {
	k := evalKey{appName, gpuName, bits}
	if e, ok := d.cache[k]; ok {
		return e, nil
	}
	app, err := gpufi.AppByNameScale(appName, d.scale)
	if err != nil {
		return nil, err
	}
	gpu, err := gpufi.CardByName(gpuName)
	if err != nil {
		return nil, err
	}
	gpu.LenientMemory = d.lenient
	gpu.L2QueueCycles = d.l2queue
	fmt.Fprintf(d.log, "  evaluating %s on %s (%d-bit, %d runs/point)...\n",
		appName, gpuName, bits, d.runs)
	e, err := gpufi.Evaluate(nil, app, gpu, gpufi.EvalConfig{
		Runs: d.runs, Bits: bits, Seed: d.seed, Workers: d.workers,
	})
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %v", appName, gpuName, err)
	}
	d.cache[k] = e
	return e, nil
}

func (d *driver) printf(format string, args ...any) {
	fmt.Fprintf(d.out, format, args...)
}

func mbString(bits int64) string {
	mb := float64(bits) / 8 / 1024 / 1024
	if mb >= 1 {
		return fmt.Sprintf("%.2f MB", mb)
	}
	return fmt.Sprintf("%.2f KB", float64(bits)/8/1024)
}

func (d *driver) table1() error {
	tb := &report.Table{
		Title:  "Table I — memory structure sizes across generations (with 57-bit tags)",
		Header: []string{"structure", "RTX2060", "QuadroGV100", "GTXTitan"},
	}
	cards := gpufi.Cards()
	row := func(name string, f func(g *gpufi.GPU) int64) {
		cells := []string{name}
		for _, g := range cards {
			if b := f(g); b > 0 {
				cells = append(cells, mbString(b))
			} else {
				cells = append(cells, "N/A")
			}
		}
		tb.Rows = append(tb.Rows, cells)
	}
	row("Register File", func(g *gpufi.GPU) int64 { return g.RegFileBits() })
	row("Shared Memory", func(g *gpufi.GPU) int64 { return g.SmemBits() })
	row("L1 data cache", func(g *gpufi.GPU) int64 { return g.L1DBits() })
	row("L1 texture cache", func(g *gpufi.GPU) int64 { return g.L1TBits() })
	row("L1 instruction cache", func(g *gpufi.GPU) int64 { return g.L1IBits() })
	row("L1 constant cache", func(g *gpufi.GPU) int64 { return g.L1CBits() })
	row("L2 cache", func(g *gpufi.GPU) int64 { return g.L2Bits() })
	return d.emit("table1", tb)
}

func (d *driver) table2() error {
	tb := &report.Table{
		Title:  "Table II — CUDA memory spaces and the cache that services them",
		Header: []string{"core memory", "accesses"},
	}
	tb.AddRow("Shared memory (R/W)", "shared memory accesses only (LDS/STS)")
	tb.AddRow("Constant path (RO)", "constant and parameter memory (LDC) — not injectable")
	tb.AddRow("Texture cache (RO)", "texture accesses only (TLD)")
	tb.AddRow("Data cache (R/W)", "global (evict-on-write) and local (writeback) accesses")
	return d.emit("table2", tb)
}

func (d *driver) table4() error {
	// One live injection per structure on VA demonstrates every target.
	// The campaigns run with propagation tracing on, so each row also
	// reports how its masked faults actually masked: the "never read"
	// share separates dead-value faults from overwritten/consumed ones.
	tb := &report.Table{
		Title:  "Table IV — supported injection targets (one demo campaign each, VA/RTX2060)",
		Header: []string{"structure", "runs", "masked", "failures", "FR 99% CI", "masked never-read", "note"},
	}
	app, _ := gpufi.AppByName("VA")
	gpu := gpufi.RTX2060()
	prof, err := gpufi.Profile(nil, app, gpu)
	if err != nil {
		return err
	}
	for _, st := range gpufi.Structures() {
		res, err := gpufi.NewCampaign(
			gpufi.WithTarget(app, gpu, "va_add", st),
			gpufi.WithRuns(20),
			gpufi.WithSeed(d.seed),
			gpufi.WithWorkers(d.workers),
			gpufi.WithTrace(nil),
			gpufi.WithProfile(prof),
		).Run(context.Background())
		if err != nil {
			return err
		}
		neverRead := 0
		for i := range res.Exps {
			if res.Exps[i].Why == "masked:never-read" {
				neverRead++
			}
		}
		nrCell := "-"
		if res.Counts.Masked > 0 {
			nrCell = fmt.Sprintf("%.0f%%", 100*float64(neverRead)/float64(res.Counts.Masked))
		}
		note := ""
		switch st {
		case gpufi.StructShared:
			note = "VA uses no shared memory: all masked by construction"
		case gpufi.StructLocal:
			note = "VA uses no local memory: all masked by construction"
		}
		lo, hi := gpufi.Wilson(res.Counts.Failures(), res.Counts.Total(), 0.99)
		tb.AddRow(st.String(), fmt.Sprint(res.Counts.Total()),
			fmt.Sprint(res.Counts.Masked), fmt.Sprint(res.Counts.Failures()),
			fmt.Sprintf("[%.3f, %.3f]", lo, hi), nrCell, note)
	}
	return d.emit("table4", tb)
}

func (d *driver) table5() error {
	tb := &report.Table{
		Title:  "Table V — microarchitectural parameters",
		Header: []string{"parameter", "RTX2060", "QuadroGV100", "GTXTitan"},
	}
	cards := gpufi.Cards()
	row := func(name string, f func(g *gpufi.GPU) string) {
		cells := []string{name}
		for _, g := range cards {
			cells = append(cells, f(g))
		}
		tb.Rows = append(tb.Rows, cells)
	}
	row("SMs", func(g *gpufi.GPU) string { return fmt.Sprint(g.SMs) })
	row("Warp size", func(g *gpufi.GPU) string { return fmt.Sprint(g.WarpSize) })
	row("Max threads per SM", func(g *gpufi.GPU) string { return fmt.Sprint(g.MaxThreadsPerSM) })
	row("Max CTAs per SM", func(g *gpufi.GPU) string { return fmt.Sprint(g.MaxCTAsPerSM) })
	row("Registers per SM", func(g *gpufi.GPU) string { return fmt.Sprint(g.RegistersPerSM) })
	row("Shared memory per SM", func(g *gpufi.GPU) string { return fmt.Sprintf("%d KB", g.SmemPerSM/1024) })
	row("L1D per SM", func(g *gpufi.GPU) string {
		if g.L1D == nil {
			return "N/A"
		}
		return fmt.Sprintf("%d KB (%s*)", g.L1D.DataBytes()/1024, kbStar(g.L1D.SizeBits()))
	})
	row("L1T per SM", func(g *gpufi.GPU) string {
		return fmt.Sprintf("%d KB (%s*)", g.L1T.DataBytes()/1024, kbStar(g.L1T.SizeBits()))
	})
	row("L2 size", func(g *gpufi.GPU) string {
		return fmt.Sprintf("%.1f MB (%s*)", float64(g.L2.DataBytes())/1024/1024, mbString(g.L2.SizeBits()))
	})
	row("Process node", func(g *gpufi.GPU) string { return fmt.Sprintf("%d nm", g.ProcessNm) })
	row("Raw FIT/bit", func(g *gpufi.GPU) string { return fmt.Sprintf("%.1e", g.RawFITPerBit) })
	if err := d.emit("table5", tb); err != nil {
		return err
	}
	d.printf("    * including 57 tag bits per cache line\n\n")
	return nil
}

func kbStar(bits int64) string {
	return fmt.Sprintf("%.2f KB", float64(bits)/8/1024)
}

func (d *driver) breakdownFigure(csvName, title, gpuName string, bits int) error {
	tb := &report.Table{
		Title: title,
		Header: []string{"benchmark", "SDC", "Crash", "Timeout", "RF AVF",
			"mix (S=SDC C=Crash T=Timeout)"},
	}
	for _, name := range d.apps {
		e, err := d.eval(name, gpuName, bits)
		if err != nil {
			return err
		}
		bd := gpufi.RegFileClassBreakdown(e)
		total := bd[gpufi.SDC] + bd[gpufi.Crash] + bd[gpufi.Timeout]
		mix := report.Stacked(
			[]float64{bd[gpufi.SDC], bd[gpufi.Crash], bd[gpufi.Timeout]},
			[]byte{'S', 'C', 'T'}, 30)
		tb.AddRow(name,
			fmt.Sprintf("%.4f", bd[gpufi.SDC]),
			fmt.Sprintf("%.4f", bd[gpufi.Crash]),
			fmt.Sprintf("%.4f", bd[gpufi.Timeout]),
			fmt.Sprintf("%.4f", total), mix)
	}
	return d.emit(csvName, tb)
}

func (d *driver) fig1() error {
	for _, gpu := range []string{"RTX2060", "QuadroGV100", "GTXTitan"} {
		if err := d.breakdownFigure("fig1_"+gpu,
			fmt.Sprintf("Fig. 1 — register-file fault-effect breakdown, single-bit, %s", gpu),
			gpu, 1); err != nil {
			return err
		}
	}
	return nil
}

func (d *driver) fig2() error {
	for _, name := range []string{"SRAD2", "HS"} {
		e, err := d.eval(name, "RTX2060", 1)
		if err != nil {
			return err
		}
		shares := gpufi.StructBreakdown(e)
		keys := make([]string, 0, len(shares))
		for k := range shares {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		chart := &report.BarChart{
			Title: fmt.Sprintf("Fig. 2 — structure contributions to total AVF, %s on RTX2060", name),
			Width: 40,
		}
		for _, k := range keys {
			chart.Add(k, shares[k], report.Pct(shares[k]))
		}
		chart.Render(d.out)
		d.printf("\n")
	}
	return nil
}

func (d *driver) fig3() error {
	for _, gpu := range []string{"RTX2060", "QuadroGV100", "GTXTitan"} {
		tb := &report.Table{
			Title:  fmt.Sprintf("Fig. 3 — total chip AVF (wAVF, Eq. 3) and occupancy, %s", gpu),
			Header: []string{"benchmark", "wAVF", "occupancy", "wAVF bar"},
		}
		for _, name := range d.apps {
			e, err := d.eval(name, gpu, 1)
			if err != nil {
				return err
			}
			tb.AddRow(name,
				fmt.Sprintf("%.4f", e.WAVF),
				fmt.Sprintf("%.2f", e.Occupancy),
				report.Bar(e.WAVF, 0.05, 30))
		}
		if err := d.emit("fig3_"+gpu, tb); err != nil {
			return err
		}
	}
	return nil
}

func (d *driver) fig4() error {
	tb := &report.Table{
		Title:  "Fig. 4 — Performance fault effect (share of masked RF faults), RTX2060",
		Header: []string{"benchmark", "perf share", "bar"},
	}
	var sum float64
	for _, name := range d.apps {
		e, err := d.eval(name, "RTX2060", 1)
		if err != nil {
			return err
		}
		s := gpufi.PerformanceShare(e)
		sum += s
		tb.AddRow(name, report.Pct(s), report.Bar(s, 0.2, 30))
	}
	tb.AddRow("AVG", report.Pct(sum/float64(len(d.apps))), "")
	return d.emit("fig4", tb)
}

func (d *driver) fig5() error {
	return d.breakdownFigure("fig5", "Fig. 5 — register-file fault-effect breakdown, triple-bit, RTX2060", "RTX2060", 3)
}

func (d *driver) fig6() error {
	tb := &report.Table{
		Title:  "Fig. 6 — wAVF single-bit vs triple-bit, RTX2060",
		Header: []string{"benchmark", "1-bit", "3-bit", "ratio"},
	}
	var ratios []float64
	for _, name := range d.apps {
		e1, err := d.eval(name, "RTX2060", 1)
		if err != nil {
			return err
		}
		e3, err := d.eval(name, "RTX2060", 3)
		if err != nil {
			return err
		}
		ratio := 0.0
		if e1.WAVF > 0 {
			ratio = e3.WAVF / e1.WAVF
			ratios = append(ratios, ratio)
		}
		tb.AddRow(name,
			fmt.Sprintf("%.4f", e1.WAVF),
			fmt.Sprintf("%.4f", e3.WAVF),
			fmt.Sprintf("%.2fx", ratio))
	}
	if err := d.emit("fig6", tb); err != nil {
		return err
	}
	if len(ratios) > 0 {
		var s float64
		for _, r := range ratios {
			s += r
		}
		d.printf("mean triple/single ratio: %.2fx (paper: ~2x)\n", s/float64(len(ratios)))
	}
	d.printf("\n")
	return nil
}

func (d *driver) fig7() error {
	tb := &report.Table{
		Title:  "Fig. 7 — total FIT rates (failures per 10^9 device-hours)",
		Header: []string{"benchmark", "RTX2060", "QuadroGV100", "GTXTitan"},
	}
	for _, name := range d.apps {
		row := []string{name}
		for _, gpu := range []string{"RTX2060", "QuadroGV100", "GTXTitan"} {
			e, err := d.eval(name, gpu, 1)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2f", e.FIT))
		}
		tb.Rows = append(tb.Rows, row)
	}
	if err := d.emit("fig7", tb); err != nil {
		return err
	}
	d.printf("    expected shape: GTXTitan >> 12nm cards (28nm raw FIT/bit is ~6.7x higher)\n\n")
	return nil
}

func main() {
	os.Exit(cli.Exit("gpufi-figures", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// options is gpufi-figures' command line.
type options struct {
	exp, csvDir, appList          string
	runs, workers, scale, l2queue int
	seed                          int64
	lenient                       bool
}

// flags declares the command line on o.
func (o *options) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("gpufi-figures", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "all", "artifact: table1 table2 table4 table5 fig1..fig7, or all")
	fs.IntVar(&o.runs, "n", 100, "injections per (kernel, structure) campaign point")
	fs.Int64Var(&o.seed, "seed", 1, "campaign seed")
	fs.IntVar(&o.workers, "workers", 0, "parallel simulations per campaign (0 = all cores)")
	fs.BoolVar(&o.lenient, "lenient", false, "GPGPU-Sim-style lazily allocated memory (wild accesses succeed; reproduces the paper's near-zero Crash rates)")
	fs.StringVar(&o.csvDir, "csv", "", "also write each artifact as CSV into this directory")
	fs.IntVar(&o.scale, "scale", 1, "benchmark problem-size scale (larger = closer to the paper's inputs)")
	fs.IntVar(&o.l2queue, "l2queue", 0, "L2 bank service cycles (0 = no contention model; ~8 raises Performance effects toward the paper's)")
	fs.StringVar(&o.appList, "apps", strings.Join(gpufi.AppNames(), ","), "benchmark subset")
	return fs
}

// run renders the artifacts args name to stdout, progress to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := o.flags()
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}

	if o.csvDir != "" {
		if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
			return err
		}
	}
	d := &driver{options: o, apps: strings.Split(o.appList, ","), out: stdout, log: stderr,
		cache: make(map[evalKey]*gpufi.AppEval)}
	artifacts := map[string]func() error{
		"table1": d.table1, "table2": d.table2, "table4": d.table4, "table5": d.table5,
		"fig1": d.fig1, "fig2": d.fig2, "fig3": d.fig3, "fig4": d.fig4,
		"fig5": d.fig5, "fig6": d.fig6, "fig7": d.fig7,
	}
	order := []string{"table1", "table2", "table4", "table5",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}
	names := order
	if o.exp != "all" {
		names = strings.Split(o.exp, ",")
	}
	for _, name := range names {
		f, ok := artifacts[name]
		if !ok {
			return fmt.Errorf("unknown artifact %q (have %v)", name, order)
		}
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

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
	"log"
	"os"
	"sort"
	"strings"

	"gpufi"
	"gpufi/internal/report"
)

// evalKey caches evaluations across figures.
type evalKey struct {
	app  string
	gpu  string
	bits int
}

type driver struct {
	runs    int
	seed    int64
	workers int
	lenient bool
	scale   int
	l2queue int
	csvDir  string
	apps    []string
	out     *os.File
	cache   map[evalKey]*gpufi.AppEval
}

// emit renders a table to stdout and, when -csv is set, writes it as
// <csvDir>/<name>.csv for machine consumption.
func (d *driver) emit(name string, tb *report.Table) {
	if err := tb.Render(d.out); err != nil {
		log.Fatal(err)
	}
	d.printf("\n")
	if d.csvDir == "" {
		return
	}
	f, err := os.Create(d.csvDir + "/" + name + ".csv")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := tb.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
}

func (d *driver) eval(appName, gpuName string, bits int) *gpufi.AppEval {
	k := evalKey{appName, gpuName, bits}
	if e, ok := d.cache[k]; ok {
		return e
	}
	app, err := gpufi.AppByNameScale(appName, d.scale)
	if err != nil {
		log.Fatal(err)
	}
	gpu, err := gpufi.CardByName(gpuName)
	if err != nil {
		log.Fatal(err)
	}
	gpu.LenientMemory = d.lenient
	gpu.L2QueueCycles = d.l2queue
	fmt.Fprintf(os.Stderr, "  evaluating %s on %s (%d-bit, %d runs/point)...\n",
		appName, gpuName, bits, d.runs)
	e, err := gpufi.Evaluate(nil, app, gpu, gpufi.EvalConfig{
		Runs: d.runs, Bits: bits, Seed: d.seed, Workers: d.workers,
	})
	if err != nil {
		log.Fatalf("%s on %s: %v", appName, gpuName, err)
	}
	d.cache[k] = e
	return e
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

func (d *driver) table1() {
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
	d.emit("table1", tb)
}

func (d *driver) table2() {
	tb := &report.Table{
		Title:  "Table II — CUDA memory spaces and the cache that services them",
		Header: []string{"core memory", "accesses"},
	}
	tb.AddRow("Shared memory (R/W)", "shared memory accesses only (LDS/STS)")
	tb.AddRow("Constant path (RO)", "constant and parameter memory (LDC) — not injectable")
	tb.AddRow("Texture cache (RO)", "texture accesses only (TLD)")
	tb.AddRow("Data cache (R/W)", "global (evict-on-write) and local (writeback) accesses")
	d.emit("table2", tb)
}

func (d *driver) table4() {
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
		log.Fatal(err)
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
			log.Fatal(err)
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
	d.emit("table4", tb)
}

func (d *driver) table5() {
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
	d.emit("table5", tb)
	d.printf("    * including 57 tag bits per cache line\n\n")
}

func kbStar(bits int64) string {
	return fmt.Sprintf("%.2f KB", float64(bits)/8/1024)
}

func (d *driver) breakdownFigure(csvName, title, gpuName string, bits int) {
	tb := &report.Table{
		Title: title,
		Header: []string{"benchmark", "SDC", "Crash", "Timeout", "RF AVF",
			"mix (S=SDC C=Crash T=Timeout)"},
	}
	for _, name := range d.apps {
		e := d.eval(name, gpuName, bits)
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
	d.emit(csvName, tb)
}

func (d *driver) fig1() {
	for _, gpu := range []string{"RTX2060", "QuadroGV100", "GTXTitan"} {
		d.breakdownFigure("fig1_"+gpu,
			fmt.Sprintf("Fig. 1 — register-file fault-effect breakdown, single-bit, %s", gpu),
			gpu, 1)
	}
}

func (d *driver) fig2() {
	for _, name := range []string{"SRAD2", "HS"} {
		e := d.eval(name, "RTX2060", 1)
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
}

func (d *driver) fig3() {
	for _, gpu := range []string{"RTX2060", "QuadroGV100", "GTXTitan"} {
		tb := &report.Table{
			Title:  fmt.Sprintf("Fig. 3 — total chip AVF (wAVF, Eq. 3) and occupancy, %s", gpu),
			Header: []string{"benchmark", "wAVF", "occupancy", "wAVF bar"},
		}
		for _, name := range d.apps {
			e := d.eval(name, gpu, 1)
			tb.AddRow(name,
				fmt.Sprintf("%.4f", e.WAVF),
				fmt.Sprintf("%.2f", e.Occupancy),
				report.Bar(e.WAVF, 0.05, 30))
		}
		d.emit("fig3_"+gpu, tb)
	}
}

func (d *driver) fig4() {
	tb := &report.Table{
		Title:  "Fig. 4 — Performance fault effect (share of masked RF faults), RTX2060",
		Header: []string{"benchmark", "perf share", "bar"},
	}
	var sum float64
	for _, name := range d.apps {
		e := d.eval(name, "RTX2060", 1)
		s := gpufi.PerformanceShare(e)
		sum += s
		tb.AddRow(name, report.Pct(s), report.Bar(s, 0.2, 30))
	}
	tb.AddRow("AVG", report.Pct(sum/float64(len(d.apps))), "")
	d.emit("fig4", tb)
}

func (d *driver) fig5() {
	d.breakdownFigure("fig5", "Fig. 5 — register-file fault-effect breakdown, triple-bit, RTX2060", "RTX2060", 3)
}

func (d *driver) fig6() {
	tb := &report.Table{
		Title:  "Fig. 6 — wAVF single-bit vs triple-bit, RTX2060",
		Header: []string{"benchmark", "1-bit", "3-bit", "ratio"},
	}
	var ratios []float64
	for _, name := range d.apps {
		e1 := d.eval(name, "RTX2060", 1)
		e3 := d.eval(name, "RTX2060", 3)
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
	d.emit("fig6", tb)
	if len(ratios) > 0 {
		var s float64
		for _, r := range ratios {
			s += r
		}
		d.printf("mean triple/single ratio: %.2fx (paper: ~2x)\n", s/float64(len(ratios)))
	}
	d.printf("\n")
}

func (d *driver) fig7() {
	tb := &report.Table{
		Title:  "Fig. 7 — total FIT rates (failures per 10^9 device-hours)",
		Header: []string{"benchmark", "RTX2060", "QuadroGV100", "GTXTitan"},
	}
	for _, name := range d.apps {
		row := []string{name}
		for _, gpu := range []string{"RTX2060", "QuadroGV100", "GTXTitan"} {
			e := d.eval(name, gpu, 1)
			row = append(row, fmt.Sprintf("%.2f", e.FIT))
		}
		tb.Rows = append(tb.Rows, row)
	}
	d.emit("fig7", tb)
	d.printf("    expected shape: GTXTitan >> 12nm cards (28nm raw FIT/bit is ~6.7x higher)\n\n")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi-figures: ")
	var (
		exp     = flag.String("exp", "all", "artifact: table1 table2 table4 table5 fig1..fig7, or all")
		runs    = flag.Int("n", 100, "injections per (kernel, structure) campaign point")
		seed    = flag.Int64("seed", 1, "campaign seed")
		workers = flag.Int("workers", 0, "parallel simulations per campaign (0 = all cores)")
		lenient = flag.Bool("lenient", false, "GPGPU-Sim-style lazily allocated memory (wild accesses succeed; reproduces the paper's near-zero Crash rates)")
		csvDir  = flag.String("csv", "", "also write each artifact as CSV into this directory")
		scale   = flag.Int("scale", 1, "benchmark problem-size scale (larger = closer to the paper's inputs)")
		l2queue = flag.Int("l2queue", 0, "L2 bank service cycles (0 = no contention model; ~8 raises Performance effects toward the paper's)")
		appsCSV = flag.String("apps", strings.Join(gpufi.AppNames(), ","), "benchmark subset")
	)
	flag.Parse()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	d := &driver{
		runs: *runs, seed: *seed, workers: *workers, lenient: *lenient, scale: *scale, l2queue: *l2queue, csvDir: *csvDir,
		apps:  strings.Split(*appsCSV, ","),
		out:   os.Stdout,
		cache: make(map[evalKey]*gpufi.AppEval),
	}
	artifacts := map[string]func(){
		"table1": d.table1, "table2": d.table2, "table4": d.table4, "table5": d.table5,
		"fig1": d.fig1, "fig2": d.fig2, "fig3": d.fig3, "fig4": d.fig4,
		"fig5": d.fig5, "fig6": d.fig6, "fig7": d.fig7,
	}
	order := []string{"table1", "table2", "table4", "table5",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}
	if *exp == "all" {
		for _, name := range order {
			artifacts[name]()
		}
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		f, ok := artifacts[name]
		if !ok {
			log.Fatalf("unknown artifact %q (have %v)", name, order)
		}
		f()
	}
}

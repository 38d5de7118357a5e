package main

import (
	"flag"
	"testing"

	"gpufi/internal/cli/clitest"
)

// The two campaign points of EXPERIMENTS.md § Extensions, and a small VA
// point for everything else.
const (
	sp = "-app SP -kernel sp_dot -structure regfile -n 40 -seed 5"
	km = "-app KM -kernel km_assign -structure regfile -n 40 -seed 5"
	va = "-app VA -n 40 -seed 5"
)

// documented is every command EXPERIMENTS.md § Extensions quotes, and a row
// for each flag they leave at its default, with the file in testdata
// holding its transcript (clitest.Golden: stdout, then any stderr, exit
// status and written files). Rows run in a copy of testdata/fixtures,
// whose partial/ store holds the first 19 experiments of va's journal,
// written with -workers 2, and a torn record. This table is the one place
// these commands are written.
var documented = []struct {
	file string
	args string
}{
	{"sp.txt", sp},
	{"sp_ecc.txt", sp + " -ecc"},
	{"sp_bits3.txt", sp + " -bits 3"},
	{"sp_bits3_ecc.txt", sp + " -bits 3 -ecc"},
	{"sp_warp.txt", sp + " -warp"},
	{"km.txt", km},
	{"km_lenient.txt", km + " -lenient"},

	{"list.txt", "-list"},
	{"va_quadro_l1d.txt", va + " -gpu QuadroGV100 -structure l1d"},
	{"hs_shared_blocks2.txt", "-app HS -structure shared -blocks 2 -n 40 -seed 5"},
	{"va_scale2.txt", va + " -scale 2"},
	{"va_l2queue.txt", va + " -l2queue 32"},
	{"va_log.txt", va + " -workers 1 -log va.jsonl"},
	{"va_trace.txt", va + " -log va.jsonl -trace va-traces.jsonl"},
	{"va_stats.txt", va + " -stats -instr-trace va.trace"},
	{"va_progress.txt", va + " -progress"},
	{"va_exp_timeout.txt", va + " -workers 1 -exp-timeout 1m -store st"},
	{"va_target_ci.txt", "-app VA -n 500 -seed 5 -target-ci 0.1"},
	{"va_store.txt", va + " -workers 1 -store st ; " + va + " -workers 1 -store st"},
	{"va_store_trace.txt", va + " -workers 1 -store st -trace on"},
	{"va_store_workers.txt", va + " -workers 1 -store st ; " + va + " -workers 2 -store st"},
	{"va_store_resume.txt", va + " -workers 1 -store partial"},

	{"err_exp_timeout.txt", va + " -exp-timeout 500us"},
	{"err_kernel.txt", "-app VA -kernel nope -n 40"},
	{"err_n0.txt", "-app VA -n 0"},
	{"err_titan_l1d.txt", "-gpu GTXTitan -structure l1d -n 40"},
	{"err_resume.txt", "-resume"},
	{"err_flag.txt", "-bogus"},
	{"help.txt", "-h"},
}

// TestDocumentedCommands reruns each command of the table and requires its
// transcript to equal the recorded file byte for byte. Outcomes are
// deterministic per seed on any host and worker count, so a difference is
// a change in what the simulator, the engine or the flag wiring computes.
func TestDocumentedCommands(t *testing.T) {
	for _, c := range documented {
		t.Run(c.file, func(t *testing.T) {
			clitest.Golden(t, "gpufi", run, "testdata/fixtures", c.args, c.file)
		})
	}
}

// TestEveryFlagHasARow fails on a flag no row of documented sets to a
// value other than its default: every flag earns its keep with a test.
func TestEveryFlagHasARow(t *testing.T) {
	var scripts []string
	for _, c := range documented {
		scripts = append(scripts, c.args)
	}
	if unset := clitest.Unset(func() *flag.FlagSet { return new(options).flags() }, scripts); len(unset) > 0 {
		t.Errorf("no row of documented sets %v", unset)
	}
}

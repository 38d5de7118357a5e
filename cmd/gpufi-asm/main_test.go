package main

import (
	"flag"
	"testing"

	"gpufi/internal/cli/clitest"
)

// rows is every command line the tests run, with the file in testdata
// holding its transcript (clitest.Golden). They run in a copy of
// testdata/fixtures: va.gasm is the VA benchmark's kernel source
// (internal/bench/va.go), bad.gasm a kernel with an unknown mnemonic.
var rows = []struct {
	file string
	args string
}{
	{"va.txt", "va.gasm"},
	{"va_cfg.txt", "-cfg va.gasm"},
	{"va_q.txt", "-q va.gasm"},
	{"stdin.txt", "-cfg < va.gasm"},
	{"err_bad.txt", "-q bad.gasm"},
	{"err_usage.txt", "va.gasm bad.gasm"},
}

// TestRows reruns each command line of the table and requires its
// transcript to equal the recorded file byte for byte.
func TestRows(t *testing.T) {
	for _, c := range rows {
		t.Run(c.file, func(t *testing.T) {
			clitest.Golden(t, "gpufi-asm", run, "testdata/fixtures", c.args, c.file)
		})
	}
}

// TestEveryFlagHasARow fails on a flag no row sets to a value other than its
// default: every flag earns its keep with a test. It also fails on a flag
// that a command line of the documents (clitest.Docs) passes and the flag
// set does not define.
func TestEveryFlagHasARow(t *testing.T) {
	var scripts []string
	for _, c := range rows {
		scripts = append(scripts, c.args)
	}
	newFlags := func() *flag.FlagSet { return new(options).flags() }
	if unset := clitest.Unset(newFlags, scripts); len(unset) > 0 {
		t.Errorf("no row sets %v", unset)
	}
	if unknown, err := clitest.UnknownFlags("../..", "gpufi-asm", newFlags); err != nil || len(unknown) > 0 {
		t.Errorf("the documents pass gpufi-asm flags it does not define (%v): %v", err, unknown)
	}
}

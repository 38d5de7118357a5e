package main

import (
	"flag"
	"testing"

	"gpufi/internal/cli/clitest"
)

// rows is every command line the tests run, with the file in testdata
// holding its transcript (clitest.Golden). They run in a copy of
// testdata/fixtures: va.jsonl is a traced 40-run VA campaign's log
// (gpufi -app VA -n 40 -seed 5 -log va.jsonl -trace ...), va_torn.jsonl
// the same log cut 37 bytes into its last record, and spans.jsonl a traced
// 16-run campaign's timeline from gpufi-serve, with a span per experiment
// and phase; spans_cluster.jsonl is one of the same campaign recorded since
// the phase times ride on the engine.cluster spans.
var rows = []struct {
	file string
	args string
}{
	{"va.txt", "va.jsonl"},
	{"va_csv.txt", "-csv va.jsonl"},
	{"va_why.txt", "-why va.jsonl"},
	{"va_ci.txt", "-ci va.jsonl"},
	{"va_torn.txt", "va.jsonl va_torn.jsonl"},
	{"va_torn_strict.txt", "-strict va_torn.jsonl"},
	{"stdin.txt", "-why - < va_torn.jsonl"},
	{"spans.txt", "-spans spans.jsonl"},
	{"spans_cluster.txt", "-spans spans_cluster.jsonl"},
	{"err_usage.txt", ""},
}

// TestRows reruns each command line of the table and requires its
// transcript to equal the recorded file byte for byte.
func TestRows(t *testing.T) {
	for _, c := range rows {
		t.Run(c.file, func(t *testing.T) {
			clitest.Golden(t, "gpufi-report", run, "testdata/fixtures", c.args, c.file)
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
	if unknown, err := clitest.UnknownFlags("../..", "gpufi-report", newFlags); err != nil || len(unknown) > 0 {
		t.Errorf("the documents pass gpufi-report flags it does not define (%v): %v", err, unknown)
	}
}

package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpufi/internal/cli/clitest"
)

// snapshots is every committed figure file and the command line that
// produced it: this table is the one place those commands are written.
// Regenerate a file with `go run ./cmd/gpufi-figures <args> > <file>` from
// the repository root.
var snapshots = []struct {
	file string
	args string
}{
	{"figures_output.txt", "-exp all -n 150 -seed 1 -lenient"},
	{"figures_output_strict.txt", "-exp fig1,fig3,fig7 -n 150 -seed 1"},
	{"figures_scale4.txt", "-exp fig3 -n 60 -seed 1 -scale 4 -lenient -apps HS,VA,SP,KM"},
}

// rows is a command line for each flag the snapshots leave at its default,
// with the file in testdata holding its transcript (clitest.Golden:
// the artifacts, the progress lines on stderr and every CSV written).
var rows = []struct {
	file string
	args string
}{
	{"table4_seed2.txt", "-exp table4 -seed 2"},
	{"fig1_workers1.txt", "-exp fig1 -apps VA -n 20 -seed 1 -workers 1"},
	{"fig3_l2queue.txt", "-exp fig3 -apps VA,SP -n 20 -seed 1 -l2queue 64"},
	{"csv.txt", "-exp table1,table5 -seed 1 -csv out"},
}

// tables narrows a command to the paper's tables, the head of the first
// snapshot up to Fig. 1: milliseconds where the figures take seconds, so
// it is the -short check.
const tables = "-exp table1,table2,table4,table5"

// TestSnapshotsRegenerate reruns each command of the table and requires
// its output to equal the committed file byte for byte; under -short only
// the tables of the first one. The numbers are deterministic per seed on
// any host and worker count, so a difference is a change in what the
// simulator, the engine or the AVF/FIT arithmetic computes.
func TestSnapshotsRegenerate(t *testing.T) {
	for i, s := range snapshots {
		if testing.Short() && i > 0 {
			break
		}
		t.Run(s.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", s.file))
			if err != nil {
				t.Fatal(err)
			}
			want, args := string(raw), s.args
			if testing.Short() {
				want, _, _ = strings.Cut(want, "\nFig. 1 ")
				want += "\n"
				args += " " + tables
			}
			var got bytes.Buffer
			if err := run(strings.Fields(args), &got, io.Discard); err != nil {
				t.Fatalf("gpufi-figures %s: %v", args, err)
			}
			if line := clitest.FirstDiff(want, got.String()); line != "" {
				t.Errorf("gpufi-figures %s no longer reproduces %s; first difference at %s", args, s.file, line)
			}
		})
	}
}

// TestRows reruns each command line of rows and requires its transcript
// to equal the recorded file byte for byte.
func TestRows(t *testing.T) {
	for _, c := range rows {
		t.Run(c.file, func(t *testing.T) {
			clitest.Golden(t, "gpufi-figures", run, "", c.args, c.file)
		})
	}
}

// TestEveryFlagHasARow fails on a flag no snapshot or row sets to a value
// other than its default: every flag earns its keep with a test. It also
// fails on a flag that a command line of the documents (clitest.Docs) passes
// and the flag set does not define.
func TestEveryFlagHasARow(t *testing.T) {
	var scripts []string
	for _, s := range snapshots {
		scripts = append(scripts, s.args)
	}
	for _, c := range rows {
		scripts = append(scripts, c.args)
	}
	newFlags := func() *flag.FlagSet { return new(options).flags() }
	if unset := clitest.Unset(newFlags, scripts); len(unset) > 0 {
		t.Errorf("no snapshot or row sets %v", unset)
	}
	if unknown, err := clitest.UnknownFlags("../..", "gpufi-figures", newFlags); err != nil || len(unknown) > 0 {
		t.Errorf("the documents pass gpufi-figures flags it does not define (%v): %v", err, unknown)
	}
}

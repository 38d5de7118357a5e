package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The two campaign points of EXPERIMENTS.md § Extensions.
const (
	sp = "-app SP -kernel sp_dot -structure regfile -n 40 -seed 5"
	km = "-app KM -kernel km_assign -structure regfile -n 40 -seed 5"
)

// documented is every command EXPERIMENTS.md § Extensions quotes and the
// file in testdata holding its whole stdout: this table is the one place
// those commands are written. Regenerate a file with
// `go run ./cmd/gpufi <args> > cmd/gpufi/testdata/<file>` from the
// repository root.
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
}

// TestDocumentedCommands reruns each command of the table and requires its
// stdout to equal the recorded file byte for byte. Outcomes are
// deterministic per seed on any host and worker count, so a difference is
// a change in what the simulator, the engine or the flag wiring computes.
func TestDocumentedCommands(t *testing.T) {
	for _, c := range documented {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(strings.Fields(c.args), &got, io.Discard); err != nil {
				t.Fatalf("gpufi %s: %v", c.args, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("gpufi %s no longer prints testdata/%s\n--- want\n%s--- got\n%s",
					c.args, c.file, want, got.Bytes())
			}
		})
	}
}

// Package clitest runs the commands under cmd/ in their tests: a script of
// command lines goes through a command's run function in a temporary
// directory and its transcript is held to a golden file, and Unset names
// the flags no test line sets. DocRefs extracts what the documents cite,
// so that the tests of what they cite can hold them to it.
//
// A script is command lines separated by " ; ", run in order in one
// directory; a line ending in "< file" reads that file on stdin.
package clitest

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"gpufi/internal/cli"
)

// The one thing a rerun changes in the files a store writes, which Golden
// masks: the random lease tokens of a control WAL's grants.
var lease = regexp.MustCompile(`"lease":"[0-9a-f]{32}"`)

// mask replaces what a rerun changes in a written file with a placeholder.
func mask(b []byte) []byte { return lease.ReplaceAll(b, []byte(`"lease":"<lease>"`)) }

// Golden runs script through run, the command called name, in a new
// directory holding a copy of the files under fixtures (none when empty),
// and requires its transcript to equal testdata/<file>: each line's stdout,
// then its stderr and exit status when there are any, a line after the
// first introduced by "-- then <line> --"; then the size and digest of
// every file the script created or changed.
func Golden(t *testing.T, name string, run func(args []string, stdout, stderr io.Writer) error, fixtures, script, file string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	dir, before := t.TempDir(), map[string][]byte{}
	if fixtures != "" {
		before = files(t, fixtures)
		for rel, b := range before {
			path := filepath.Join(dir, rel)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var out bytes.Buffer
	for i, line := range strings.Split(script, " ; ") {
		if i > 0 {
			fmt.Fprintf(&out, "-- then %s --\n", line)
		}
		args := strings.Fields(line)
		var stdin *os.File // the process's own, while a file stands in for it
		if n := len(args); n >= 2 && args[n-2] == "<" {
			if stdin, err = os.Open(args[n-1]); err != nil {
				t.Fatal(err)
			}
			os.Stdin, stdin, args = stdin, os.Stdin, args[:n-2]
		}
		var stderr bytes.Buffer
		code := cli.Exit(name, run(args, &out, &stderr), &stderr)
		if stdin != nil {
			os.Stdin.Close()
			os.Stdin = stdin
		}
		if stderr.Len() > 0 {
			fmt.Fprintf(&out, "-- stderr --\n%s", stderr.Bytes())
		}
		if code != 0 {
			fmt.Fprintf(&out, "-- exit %d --\n", code)
		}
	}
	after := files(t, dir)
	rels := make([]string, 0, len(after))
	for rel := range after {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		if b, ok := before[rel]; !ok || !bytes.Equal(b, after[rel]) {
			b := mask(after[rel])
			fmt.Fprintf(&out, "-- wrote %s: %d bytes, sha256 %x --\n", rel, len(b), sha256.Sum256(b))
		}
	}
	if d := FirstDiff(string(want), out.String()); d != "" {
		t.Errorf("%s %s no longer prints testdata/%s; first difference at %s", name, script, file, d)
	}
}

// files reads every regular file under dir, keyed by slash path.
func files(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	m := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err == nil {
			m[filepath.ToSlash(rel)], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FirstDiff describes the first line where got differs from want, or
// returns "" when they are equal.
func FirstDiff(want, got string) string {
	w, g := strings.SplitAfter(want, "\n"), strings.SplitAfter(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return ""
}

// Unset names the flags of newFlags' set that no command line of scripts
// sets to a value other than its default. A line the flag set rejects
// still counts the flags it set before the error.
func Unset(newFlags func() *flag.FlagSet, scripts []string) []string {
	set := map[string]bool{}
	for _, script := range scripts {
		for _, line := range strings.Split(script, " ; ") {
			flags := newFlags()
			flags.SetOutput(io.Discard)
			flags.Parse(strings.Fields(line))
			flags.Visit(func(f *flag.Flag) { set[f.Name] = set[f.Name] || f.Value.String() != f.DefValue })
		}
	}
	var unset []string
	newFlags().VisitAll(func(f *flag.Flag) {
		if !set[f.Name] {
			unset = append(unset, f.Name)
		}
	})
	return unset
}

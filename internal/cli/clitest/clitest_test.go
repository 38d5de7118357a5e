package clitest

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMask holds the mask to exactly the one thing a rerun changes: a
// control WAL grant's lease token becomes a placeholder, and everything
// else, a lease of the wrong length and a time included, stays.
func TestMask(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"at":"2026-10-18T06:42:18+02:00"}`, `{"at":"2026-10-18T06:42:18+02:00"}`},
		{`{"kind":"grant","shard":"c:0:0","lease":"0123456789abcdef0123456789abcdef","epoch":1,"worker":"local-1"}`,
			`{"kind":"grant","shard":"c:0:0","lease":"<lease>","epoch":1,"worker":"local-1"}`},
		{`{"lease":"0123456789abcdef"}`, `{"lease":"0123456789abcdef"}`},
		{`{"lease":"0123456789ABCDEF0123456789ABCDEF"}`, `{"lease":"0123456789ABCDEF0123456789ABCDEF"}`},
		{`{"kind":"plan","gen":1,"shard":"c:1:0","indices":[3,4]}`, `{"kind":"plan","gen":1,"shard":"c:1:0","indices":[3,4]}`},
	} {
		if got := string(mask([]byte(c.in))); got != c.want {
			t.Errorf("mask(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

// TestDocRefs extracts every kind of reference from a small repository:
// code spans and section references that break across lines, a fenced
// command continued by a backslash, go run and a bare command name; and
// nothing from a code span's § text, a shell comment, a layout line
// naming a command directory, or what follows the history marker.
func TestDocRefs(t *testing.T) {
	root := t.TempDir()
	for rel, body := range map[string]string{
		"go.mod":                         "module x\n",
		"cmd/tool/main.go":               "package main\n",
		"internal/a/a.go":                "package a\n",
		"DESIGN.md":                      "# Layout rules\n\n```\ncmd/\n  tool/   -not a flag\n```\n",
		"EXPERIMENTS.md":                 "",
		".claude/skills/verify/SKILL.md": "",
		"README.md": "# Read me\n\n" +
			"Run `tool -seed 5\n  -log x.jsonl` or `go test -run 'TestA|TestB' ./internal/a`,\n" +
			"see `internal/a/a.go:12`, `internal/a.Func` and DESIGN.md § *Layout\nrules*.\n\n" +
			"```sh\nFOO=1 go run ./cmd/tool -n 3 \\\n  -bits=2 | tool -list # -nope\n```\n\n" +
			"TestA*, testing.BenchmarkResult and gpufi_x_* count; `§ *Not one*` is code.\n\n" +
			HistoryMarker + "\n\n`tool -old`, `internal/gone.go`, TestOld and gpufi_old.\n",
	} {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := DocRefs(root)
	if err != nil {
		t.Fatal(err)
	}
	str := func(rs []Ref) []string {
		var s []string
		for _, r := range rs {
			s = append(s, r.String()+" "+r.In+strings.Join(flagNames(r.Args), ","))
		}
		return s
	}
	for _, c := range []struct {
		kind string
		got  []Ref
		want []string
	}{
		{"paths", refs.Paths, []string{"README.md:5: internal/a/a.go ", "README.md:5: internal/a.Func "}},
		{"tests", refs.Tests, []string{"README.md:4: TestA ", "README.md:4: TestB ", "README.md:13: TestA* "}},
		{"go test lines", refs.GoTests, []string{"README.md:4: go test -run TestA|TestB ./internal/a run"}},
		{"sections", refs.Sections, []string{"README.md:5: Layout rules DESIGN.md"}},
		{"metrics", refs.Metrics, []string{"README.md:13: gpufi_x_* "}},
		{"commands", refs.Commands["tool"], []string{
			"README.md:3: tool -seed 5 -log x.jsonl seed,log",
			"README.md:9: go run ./cmd/tool -n 3 -bits=2 n,bits",
			"README.md:9: tool -list list",
		}},
	} {
		if got := str(c.got); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %q\nwant %q", c.kind, got, c.want)
		}
	}
}

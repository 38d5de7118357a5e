package gpufi_test

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gpufi/internal/cli/clitest"
)

// TestWorkflowTestNamesResolve reads every `go test` command of the CI
// workflow and requires each name its -run, -bench and -fuzz patterns
// select to match a test function of the packages the command names
// (unresolvedNames): a test renamed or deleted without its CI step would
// otherwise leave a pattern that silently selects nothing.
func TestWorkflowTestNamesResolve(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // package pattern -> test function names
	names := map[string]bool{}
	for _, line := range workflowCommands(string(raw)) {
		for _, args := range clitest.ShellCommands(line) {
			if len(args) < 2 || args[0] != "go" || args[1] != "test" {
				continue
			}
			selected, bad := unresolvedNames(t, args[2:], funcs)
			for _, name := range selected {
				names[name] = true
			}
			for _, msg := range bad {
				t.Errorf("CI command %q: %s", line, msg)
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no -run, -bench or -fuzz name in the workflow")
	}
	t.Logf("%d distinct names resolve", len(names))
}

// TestDocumentReferencesResolve holds the documents that describe the
// repository as it is (clitest.Docs, each down to its history marker) to
// what they cite: a backticked repo path exists (a .Symbol after a
// package directory aside), a test name is a test function or a prefix of
// one (TestCOW*), a quoted go test command line resolves as CI's do,
// and a § *Heading* reference begins a heading of the document it names.
// Flags and metric names are checked where their sets are: each command's
// TestEveryFlagHasARow and internal/service's TestMetricCatalogue.
func TestDocumentReferencesResolve(t *testing.T) {
	refs, err := clitest.DocRefs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs.Paths {
		if !pathExists(r.Text) {
			t.Errorf("%v: no such file or directory", r)
		}
	}

	all := testFuncs(t, "./...")
	for _, r := range refs.Tests {
		found := false
		for _, f := range all {
			found = found || strings.HasPrefix(f, strings.TrimSuffix(r.Text, "*"))
		}
		if !found {
			t.Errorf("%v: no such test function", r)
		}
	}

	funcs := map[string][]string{}
	for _, r := range refs.GoTests {
		if _, bad := unresolvedNames(t, r.Args, funcs); len(bad) > 0 {
			t.Errorf("%v: %s", r, strings.Join(bad, "; "))
		}
	}

	headings := map[string][]string{}
	for _, r := range refs.Sections {
		if headings[r.In] == nil {
			headings[r.In] = docHeadings(t, r.In)
		}
		found := false
		for _, h := range headings[r.In] {
			found = found || strings.HasPrefix(h, r.Text)
		}
		if !found {
			t.Errorf("%v: %s has no heading that begins so", r, r.In)
		}
	}
	t.Logf("%d paths, %d test names, %d go test lines and %d section references resolve",
		len(refs.Paths), len(refs.Tests), len(refs.GoTests), len(refs.Sections))
}

// unresolvedNames takes the words of a go test command line after "go
// test" and returns the names its -run, -bench and -fuzz patterns select,
// and a message for each that matches no test function of the packages the
// line names, as go test matches it. Each pattern is split on '|' and cut
// at the first '/' (a subtest); '^$', which selects nothing on purpose, is
// skipped. funcs caches each package's test functions.
func unresolvedNames(t *testing.T, args []string, funcs map[string][]string) (names, bad []string) {
	var patterns, pkgs []string
	for i, a := range args {
		switch {
		case a == "." || strings.HasPrefix(a, "./"):
			pkgs = append(pkgs, a)
		case (a == "-run" || a == "-bench" || a == "-fuzz") && i+1 < len(args):
			patterns = append(patterns, args[i+1])
		}
	}
	for _, p := range patterns {
		for _, name := range strings.Split(p, "|") {
			if name, _, _ = strings.Cut(name, "/"); name == "^$" {
				continue
			}
			names = append(names, name)
			re, err := regexp.Compile(name)
			if err != nil {
				bad = append(bad, err.Error())
				continue
			}
			found := false
			for _, pkg := range pkgs {
				if funcs[pkg] == nil {
					funcs[pkg] = testFuncs(t, pkg)
				}
				for _, f := range funcs[pkg] {
					found = found || re.MatchString(f)
				}
			}
			if !found {
				bad = append(bad, fmt.Sprintf("%q matches no test function of %v", name, pkgs))
			}
		}
	}
	return names, bad
}

// pathExists reports whether p, relative to the root, names a file or a
// directory, or a package directory and a symbol after a dot in its last
// segment (internal/lazyrand.Source); a p with * in it must match one.
func pathExists(p string) bool {
	if strings.Contains(p, "*") {
		m, _ := filepath.Glob(p)
		return len(m) > 0
	}
	if _, err := os.Stat(p); err == nil {
		return true
	}
	dir, last := path.Split(p)
	pkg, _, cut := strings.Cut(last, ".")
	fi, err := os.Stat(dir + pkg)
	return cut && err == nil && fi.IsDir()
}

// docHeadings returns the headings of the document at path doc, relative
// to the root, without their #s; a # line in a fenced block is not one.
func docHeadings(t *testing.T, doc string) []string {
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var hs []string
	fenced := false
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case !fenced && strings.HasPrefix(line, "#"):
			hs = append(hs, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	return hs
}

// workflowCommands returns the shell commands of every run: key, one per
// line of a literal block (|), one per folded block (>).
func workflowCommands(yml string) []string {
	var cmds []string
	lines := strings.Split(yml, "\n")
	for i := 0; i < len(lines); i++ {
		key := strings.TrimLeft(lines[i], " -")
		if !strings.HasPrefix(key, "run:") {
			continue
		}
		val := strings.TrimSpace(strings.TrimPrefix(key, "run:"))
		if val != "|" && val != ">" {
			cmds = append(cmds, val)
			continue
		}
		indent := len(lines[i]) - len(strings.TrimLeft(lines[i], " "))
		var block []string
		for i+1 < len(lines) {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			i++
			block = append(block, strings.TrimSpace(next))
		}
		if val == ">" {
			block = []string{strings.Join(block, " ")}
		}
		cmds = append(cmds, block...)
	}
	return cmds
}

var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)

// testFuncs returns the test functions declared in the _test.go files of
// pkg, a relative package path; one ending in ... takes the packages under
// it too, outside testdata and dot directories.
func testFuncs(t *testing.T, pkg string) []string {
	dir, recursive := strings.CutSuffix(pkg, "...")
	dir = filepath.Clean(dir)
	var found []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != dir && (!recursive || d.Name() == "testdata" || d.Name()[0] == '.'):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			found = append(found, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatalf("package %s: %v", pkg, err)
	}
	return found
}

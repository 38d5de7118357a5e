package gpufi_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestWorkflowTestNamesResolve reads every `go test` command of the CI
// workflow and requires each name its -run, -bench and -fuzz patterns
// select to match a test function of the packages the command names, as
// go test matches it: a test renamed or deleted without its CI step would
// otherwise leave a pattern that silently selects nothing. Each pattern is
// split on '|' and cut at the first '/' (a subtest); '^$', which selects
// nothing on purpose, is skipped.
func TestWorkflowTestNamesResolve(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // package pattern -> test function names
	names := map[string]bool{}
	for _, cmd := range workflowCommands(string(raw)) {
		args := shellWords(cmd)
		if len(args) < 2 || args[0] != "go" || args[1] != "test" {
			continue
		}
		var patterns, pkgs []string
		for i, a := range args {
			switch {
			case strings.HasPrefix(a, "./"):
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
				names[name] = true
				re, err := regexp.Compile(name)
				if err != nil {
					t.Errorf("CI command %q: %v", cmd, err)
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
					t.Errorf("%q in CI command %q matches no test function of %v", name, cmd, pkgs)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no -run, -bench or -fuzz name in the workflow")
	}
	t.Logf("%d distinct names resolve", len(names))
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

// shellWords splits a command line on blanks outside single quotes.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	quoted, inWord := false, false
	for _, c := range s {
		switch {
		case c == '\'':
			quoted, inWord = !quoted, true
		case c == ' ' && !quoted:
			if inWord {
				words = append(words, w.String())
				w.Reset()
			}
			inWord = false
		default:
			w.WriteRune(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)

// testFuncs returns the test functions declared in the _test.go files of
// pkg, a relative package path; one ending in /... takes the packages
// under it too.
func testFuncs(t *testing.T, pkg string) []string {
	dir, recursive := strings.CutSuffix(filepath.Clean(pkg), "/...")
	var found []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != dir && (!recursive || d.Name() == "testdata"):
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

package clitest

import (
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
)

// Docs are the documents that describe the repository as it is, relative
// to its root: every reference in them must resolve. A document is read
// down to a line holding only HistoryMarker; what follows it is history,
// left as it was written.
var Docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// HistoryMarker is the line after which a document records history.
const HistoryMarker = "<!-- history -->"

// A Ref is one reference a document makes, where it makes it.
type Ref struct {
	Doc  string // the document, relative to the root
	Line int    // the line the reference starts on
	Text string // a path, a test name, a heading, a metric name, a command
	// In is the document a section reference names; Args are the words
	// after a command's name, or after "go test".
	In   string
	Args []string
}

func (r Ref) String() string { return fmt.Sprintf("%s:%d: %s", r.Doc, r.Line, r.Text) }

// Refs is every reference of Docs, by kind.
type Refs struct {
	Paths    []Ref            // a backticked path whose first segment is a root entry, :line cut
	Tests    []Ref            // a Test, Benchmark, Fuzz or Example name, or a prefix of one (TestCOW*)
	GoTests  []Ref            // a quoted go test command line
	Sections []Ref            // a § *Heading* cross-reference into In
	Metrics  []Ref            // a gpufi_ metric name; * stands for any run of characters
	Commands map[string][]Ref // a command line per command of cmd/, by its name
}

var (
	testName   = regexp.MustCompile(`(^|[^\w.])((?:Test|Benchmark|Fuzz|Example)(?:[A-Z_]\w*)?\*?)`)
	metricName = regexp.MustCompile(`\bgpufi_[a-z0-9_*]*[a-z0-9*]`)
	sectionRef = regexp.MustCompile(`(?:([\w./-]+\.md)\s+)?§\s*\*([^*]+)\*`)
	assignment = regexp.MustCompile(`^[A-Za-z_]\w*=`)
)

// DocRefs reads Docs under root and extracts their references. Code spans
// and fenced blocks are where paths and command lines are; test and metric
// names are taken from all the text.
func DocRefs(root string) (*Refs, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	rootEntry := map[string]bool{}
	for _, e := range entries {
		rootEntry[e.Name()] = true
	}
	cmds, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, err
	}
	command := map[string]bool{}
	for _, e := range cmds {
		command[e.Name()] = e.IsDir()
	}

	refs := &Refs{Commands: map[string][]Ref{}}
	for _, doc := range Docs {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		text, _, _ := strings.Cut(string(raw), "\n"+HistoryMarker+"\n")
		at := func(line int, s string) Ref { return Ref{Doc: doc, Line: line, Text: s} }
		// shell files each command of a command text: a go test line, or a
		// command of cmd/ run by its name, a path to it or go run.
		shell := func(line int, s string) {
			for _, words := range ShellCommands(s) {
				r := at(line, strings.Join(words, " "))
				if len(words) > 1 && words[0] == "go" && words[1] == "test" {
					r.Args = words[2:]
					refs.GoTests = append(refs.GoTests, r)
					continue
				}
				if len(words) > 2 && words[0] == "go" && words[1] == "run" {
					words = words[2:]
				}
				if name := path.Base(words[0]); command[name] && !strings.HasSuffix(words[0], "/") {
					r.Args = words[1:]
					refs.Commands[name] = append(refs.Commands[name], r)
				}
			}
		}

		lines := strings.Split(text, "\n")
		for i, line := range lines {
			for _, m := range testName.FindAllStringSubmatch(line, -1) {
				refs.Tests = append(refs.Tests, at(i+1, m[2]))
			}
			for _, m := range metricName.FindAllString(line, -1) {
				refs.Metrics = append(refs.Metrics, at(i+1, m))
			}
		}
		fence := func(i int) bool { return i < len(lines) && strings.HasPrefix(strings.TrimSpace(lines[i]), "```") }
		for i := 0; i < len(lines); i++ {
			if fence(i) {
				// A fenced block: a command line per line, a trailing
				// backslash continuing it.
				for i++; i < len(lines) && !fence(i); i++ {
					start, cmd := i, lines[i]
					for strings.HasSuffix(cmd, `\`) && i+1 < len(lines) {
						i++
						cmd = strings.TrimSuffix(cmd, `\`) + " " + lines[i]
					}
					shell(start+1, cmd)
				}
				continue
			}
			// A paragraph: a code span or a section reference in it may
			// break across lines.
			start := i
			for i+1 < len(lines) && strings.TrimSpace(lines[i+1]) != "" && !fence(i+1) {
				i++
			}
			para := strings.Join(lines[start:i+1], "\n")
			lineOf := func(off int) int { return start + 1 + strings.Count(para[:off], "\n") }
			parts := strings.Split(para, "`")
			for k, off := 1, len(parts[0])+1; k+1 < len(parts); k, off = k+2, off+len(parts[k])+len(parts[k+1])+2 {
				span := strings.Join(strings.Fields(parts[k]), " ")
				shell(lineOf(off), span)
				if p := repoPath(span, rootEntry); p != "" {
					refs.Paths = append(refs.Paths, at(lineOf(off), p))
				}
				parts[k] = strings.Repeat(" ", len(parts[k])) // prose, below
			}
			prose := strings.Join(parts, "`")
			for _, m := range sectionRef.FindAllStringSubmatchIndex(prose, -1) {
				r := at(lineOf(m[0]), strings.Join(strings.Fields(prose[m[4]:m[5]]), " "))
				r.In = doc
				if m[2] >= 0 {
					r.In = prose[m[2]:m[3]]
				}
				refs.Sections = append(refs.Sections, r)
			}
		}
	}
	return refs, nil
}

// repoPath returns span as a path relative to the root, its :line suffix
// cut, when it is one word whose first segment is a root entry; else "".
func repoPath(span string, rootEntry map[string]bool) string {
	if span == "" || strings.ContainsAny(span, " ") {
		return ""
	}
	p, _, _ := strings.Cut(strings.TrimPrefix(span, "./"), ":")
	p = strings.TrimSuffix(strings.TrimSuffix(p, "/..."), "/")
	if first, _, _ := strings.Cut(p, "/"); !rootEntry[first] {
		return ""
	}
	return p
}

// ShellCommands splits a command text into its simple commands' words:
// blanks separate words outside quotes; ; | & ( ) < > and # end a
// command; leading VAR=value assignments are dropped.
func ShellCommands(s string) [][]string {
	var cmds [][]string
	var words []string
	var w strings.Builder
	var quote rune
	inWord := false
	endWord := func() {
		if inWord {
			words = append(words, w.String())
		}
		w.Reset()
		inWord = false
	}
	endCmd := func() {
		endWord()
		for len(words) > 0 && assignment.MatchString(words[0]) {
			words = words[1:]
		}
		if len(words) > 0 {
			cmds = append(cmds, words)
		}
		words = nil
	}
	for _, c := range s {
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t' || c == '\n':
			endWord()
		case strings.ContainsRune(";|&()<>", c):
			endCmd()
		case c == '#' && !inWord:
			endCmd()
			return cmds
		default:
			w.WriteRune(c)
			inWord = true
		}
	}
	endCmd()
	return cmds
}

// flagNames returns the flag names of a command's words: each word that
// is - or -- and a name, with any =value cut.
func flagNames(args []string) []string {
	var names []string
	for _, a := range args {
		name, ok := strings.CutPrefix(a, "-")
		name = strings.TrimPrefix(name, "-")
		name, _, _ = strings.Cut(name, "=")
		if ok && name != "" && name[0] >= 'a' && name[0] <= 'z' {
			names = append(names, name)
		}
	}
	return names
}

// UnknownFlags returns, as "doc:line: -flag", each flag that a command
// line of Docs under root passes to the command called name and that
// newFlags' set does not define (-h and -help aside, which every flag set
// accepts).
func UnknownFlags(root, name string, newFlags func() *flag.FlagSet) ([]string, error) {
	refs, err := DocRefs(root)
	if err != nil {
		return nil, err
	}
	if len(refs.Commands[name]) == 0 {
		return nil, fmt.Errorf("no command line of the documents runs %s", name)
	}
	fs := newFlags()
	var unknown []string
	for _, r := range refs.Commands[name] {
		for _, f := range flagNames(r.Args) {
			if f != "h" && f != "help" && fs.Lookup(f) == nil {
				unknown = append(unknown, fmt.Sprintf("%s:%d: -%s", r.Doc, r.Line, f))
			}
		}
	}
	return unknown, nil
}

package gpm_test

// The prose must not outlive the code it names. TestDocReferences reads the
// user-facing documents and checks every command-line flag, make target and
// test function they cite against the repository itself.

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents checked. bench/ has its own README and is
// left out: only a change to the benchmark may edit it.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// historical marks a section kept as a record of an older tree: its
// heading says where it is reproducible ("reproducible at `<sha>`"), and
// its references are exempt.
const historical = "reproducible at"

var (
	testRef    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	gpmCommand = regexp.MustCompile(`^gpm[a-z]+$`)
	makeTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9][A-Za-z0-9_-]*):`)
)

// TestDocReferences checks, in README.md, DESIGN.md, EXPERIMENTS.md and
// the verify skill: every `gpmX -flag` against the flags cmd/gpmX
// registers (read with go/ast), every `make target` against the Makefile,
// and every TestX, BenchmarkX and FuzzX against the module's test
// functions.
func TestDocReferences(t *testing.T) {
	flags := commandFlags(t)
	targets := map[string]bool{}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	tests := testFuncs(t)

	for _, doc := range docFiles {
		for _, s := range docSnippets(t, doc) {
			where := doc + ":" + strconv.Itoa(s.line)
			if s.kind != span { // a span's text is in its prose line too
				for _, name := range testRef.FindAllString(s.text, -1) {
					if !tests[name] {
						t.Errorf("%s: %s names no test function", where, name)
					}
				}
			}
			if s.kind == prose {
				continue
			}
			words := strings.Fields(strings.NewReplacer("[", " ", "]", " ", "`", " ").Replace(s.text))
			for i, w := range words {
				switch base := filepath.Base(w); {
				case gpmCommand.MatchString(base):
					known, ok := flags[base]
					if !ok {
						t.Errorf("%s: `%s`: there is no cmd/%s", where, w, base)
						continue
					}
					for _, arg := range args(words[i+1:]) {
						if f, isFlag := flagName(arg); isFlag && !known[f] {
							t.Errorf("%s: `%s ... %s`: cmd/%s registers no flag -%s", where, base, arg, base, f)
						}
					}
				case w == "make":
					for _, arg := range args(words[i+1:]) {
						if !strings.HasPrefix(arg, "-") && !strings.Contains(arg, "=") && !targets[arg] {
							t.Errorf("%s: `make %s`: the Makefile has no target %s", where, arg, arg)
						}
					}
				}
			}
		}
	}
}

// snippet is a piece of a document: a line of prose, an inline code span,
// or a code-block line.
type snippet struct {
	line int
	kind int
	text string
}

const (
	prose = iota
	span
	block
)

// docSnippets splits a document outside its historical sections into
// prose lines, inline code spans and code-block lines, a code-block line
// continued with a trailing backslash joined to the next.
func docSnippets(t *testing.T, path string) []snippet {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []snippet
	var para []snippet // the current paragraph, for spans that wrap lines
	flush := func() {
		var text strings.Builder
		for _, p := range para {
			text.WriteString(p.text + "\n")
		}
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text.String(), -1) {
			line := para[0].line + strings.Count(text.String()[:m[0]], "\n")
			out = append(out, snippet{line, span, text.String()[m[2]:m[3]]})
		}
		para = para[:0]
	}
	skipBelow := 0 // heading level of the historical section being skipped
	fenced, cont := false, ""
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			flush()
			fenced = !fenced
			continue
		}
		if !fenced && strings.HasPrefix(line, "#") {
			flush()
			level := len(line) - len(strings.TrimLeft(line, "#"))
			if skipBelow > 0 && level > skipBelow {
				continue
			}
			skipBelow = 0
			if strings.Contains(line, historical) {
				skipBelow = level
				continue
			}
		}
		if skipBelow > 0 {
			continue
		}
		if fenced {
			if strings.HasSuffix(line, `\`) {
				cont += strings.TrimSuffix(line, `\`) + " "
				continue
			}
			out = append(out, snippet{n, block, cont + line})
			cont = ""
			continue
		}
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		out = append(out, snippet{n, prose, line})
		para = append(para, snippet{n, prose, line})
	}
	flush()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// args returns the words after a command, up to the first shell separator
// or comment.
func args(words []string) []string {
	for i, w := range words {
		if strings.ContainsAny(w[:1], ";|&>#") || gpmCommand.MatchString(filepath.Base(w)) {
			return words[:i]
		}
		if strings.HasSuffix(w, ";") {
			return append(words[:i:i], strings.TrimSuffix(w, ";"))
		}
	}
	return words
}

// flagName reports whether arg is a flag (-name, --name or -name=value)
// and returns its name.
func flagName(arg string) (string, bool) {
	name := strings.TrimLeft(arg, "-")
	if name == arg || name == "" || !('a' <= name[0] && name[0] <= 'z') {
		return "", false
	}
	name, _, _ = strings.Cut(name, "=")
	return strings.TrimRight(name, ".,:)"), true
}

// commandFlags returns, per gpm command under cmd/, the flags its sources
// register with the flag package (plus -h and -help, which it adds).
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	for _, d := range dirs {
		if !d.IsDir() || !gpmCommand.MatchString(d.Name()) {
			continue
		}
		names := map[string]bool{"h": true, "help": true}
		files, _ := filepath.Glob(filepath.Join("cmd", d.Name(), "*.go"))
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				arg := 0 // flag.Int("name", ...)
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					arg = 1 // flag.IntVar(&v, "name", ...)
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" || len(call.Args) <= arg {
					return true
				}
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						names[name] = true
					}
				}
				return true
			})
		}
		out[d.Name()] = names
	}
	return out
}

// testFuncs returns the name of every top-level Test, Benchmark and Fuzz
// function in the module's test files.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testRef.MatchString(fn.Name.Name) {
				out[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

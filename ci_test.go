package liveupdate_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const ciWorkflow = ".github/workflows/ci.yml"

// TestCIPatternsMatch holds every -run, -bench and -fuzz pattern of a
// `go test` line in the CI workflow to a function it selects: each
// top-level alternative of the pattern's first level (the part before any
// `/` subtest level) must match a Test, Example, Benchmark or Fuzz function
// declared in the packages the line names. A renamed or deleted test
// otherwise leaves its CI step silently running nothing.
func TestCIPatternsMatch(t *testing.T) {
	text, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	lines, misses, err := ciPatternMisses(string(text), ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range misses {
		t.Errorf("%s: %s", ciWorkflow, m)
	}
	if lines == 0 {
		t.Fatalf("%s: no go test line found", ciWorkflow)
	}
	t.Logf("%d go test lines checked", lines)
}

// TestCIPatternsMatchFixture runs the checker over planted workflow lines:
// a stale alternative, a stale benchmark and a subtest pattern whose first
// level names no test must be reported; a live subtest pattern, `^$` and a
// line without patterns must not.
func TestCIPatternsMatchFixture(t *testing.T) {
	const planted = `
      - run: go test -race -run 'TestCIPatternsMatch|TestGoneAway' -v .
      - run: |
          go test -run '^$' -bench 'NoAlloc$|NoSuchBench' \
            -benchmem .
      # go test -run 'TestInAComment' .
      - run: go test -run 'TestCIPatternsMatchFixture/planted' ./
      - run: go test -run 'TestNobody/.*' .
      - run: (cd internal && go test ./...)
`
	lines, misses, err := ciPatternMisses(planted, ".")
	if err != nil {
		t.Fatal(err)
	}
	if lines != 5 {
		t.Errorf("%d go test lines, want 5", lines)
	}
	want := []string{
		`go test -race -run 'TestCIPatternsMatch|TestGoneAway' -v .: -run alternative "TestGoneAway" matches no function in .`,
		`go test -run '^$' -bench 'NoAlloc$|NoSuchBench' -benchmem .: -bench alternative "NoSuchBench" matches no function in .`,
		`go test -run 'TestNobody/.*' .: -run alternative "TestNobody" matches no function in .`,
	}
	if strings.Join(misses, "\n") != strings.Join(want, "\n") {
		t.Errorf("misses:\n%s\nwant:\n%s", strings.Join(misses, "\n"), strings.Join(want, "\n"))
	}
}

// ciPatternMisses scans a workflow's `go test` lines (continuation lines
// joined, comment lines skipped) and reports each pattern alternative that
// selects no function, with package paths resolved against root. It returns
// the number of go test lines seen.
func ciPatternMisses(workflow, root string) (int, []string, error) {
	var lines, misses []string
	cur := ""
	for _, raw := range strings.Split(workflow, "\n") {
		l := strings.TrimSpace(raw)
		if cur == "" && strings.HasPrefix(l, "#") {
			continue
		}
		if strings.HasSuffix(l, `\`) {
			cur += strings.TrimSuffix(l, `\`)
			continue
		}
		lines = append(lines, cur+l)
		cur = ""
	}
	decls := map[string][]string{} // package dir → its test functions
	n := 0
	for _, l := range lines {
		i := strings.Index(l, "go test ")
		if i < 0 {
			continue
		}
		n++
		dir := root
		if m := regexp.MustCompile(`cd (\S+) &&`).FindStringSubmatch(l[:i]); m != nil {
			dir = filepath.Join(root, m[1])
		}
		cmd := l[i:]
		patterns, pkgs, err := parseGoTest(cmd)
		if err != nil {
			return n, nil, fmt.Errorf("%q: %w", cmd, err)
		}
		if len(patterns) == 0 {
			continue
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		var funcs []string
		for _, p := range pkgs {
			dirs, err := packageDirs(filepath.Join(dir, p))
			if err != nil {
				return n, nil, err
			}
			for _, d := range dirs {
				if _, ok := decls[d]; !ok {
					if decls[d], err = testFuncs(d); err != nil {
						return n, nil, err
					}
				}
				funcs = append(funcs, decls[d]...)
			}
		}
		for _, p := range patterns {
			for _, alt := range splitTopLevel(splitTopLevel(p.expr, '/')[0], '|') {
				re, err := regexp.Compile(alt)
				if err != nil {
					return n, nil, fmt.Errorf("%q: %s %q: %w", cmd, p.flag, alt, err)
				}
				if !anyMatch(re, funcs, p.prefixes) {
					misses = append(misses, fmt.Sprintf("%s: %s alternative %q matches no function in %s",
						cmd, p.flag, alt, strings.Join(pkgs, " ")))
				}
			}
		}
	}
	return n, misses, nil
}

type ciPattern struct {
	flag     string
	expr     string
	prefixes []string // the function kinds the flag selects
}

// parseGoTest splits one `go test …` command into its selection patterns
// and package arguments. The command ends at a shell operator or at the
// `)` closing a subshell or command substitution. A flag it does not know
// is an error, so a new flag cannot slip a pattern past the check.
func parseGoTest(s string) (patterns []ciPattern, pkgs []string, err error) {
	toks := shellWords(s)[2:] // drop "go test"
	selects := map[string][]string{
		"-run":   {"Test", "Example", "Fuzz"},
		"-bench": {"Benchmark"},
		"-fuzz":  {"Fuzz"},
	}
	valued := map[string]bool{"-count": true, "-fuzztime": true, "-benchtime": true, "-timeout": true}
	boolean := map[string]bool{"-race": true, "-v": true, "-benchmem": true, "-short": true}
	for i := 0; i < len(toks); i++ {
		tok := toks[i]
		if tok == "|" || tok == "&&" || tok == "||" || tok == ";" {
			break
		}
		end := strings.HasSuffix(tok, ")")
		tok = strings.TrimSuffix(tok, ")")
		flag, val, inline := strings.Cut(tok, "=")
		switch {
		case selects[flag] != nil || valued[flag]:
			if !inline {
				if i+1 >= len(toks) {
					return nil, nil, fmt.Errorf("%s has no value", flag)
				}
				i++
				val = strings.TrimSuffix(toks[i], ")")
				end = strings.HasSuffix(toks[i], ")")
			}
			if selects[flag] != nil && val != "^$" {
				patterns = append(patterns, ciPattern{flag, val, selects[flag]})
			}
		case boolean[tok]:
		case strings.HasPrefix(tok, "-"):
			return nil, nil, fmt.Errorf("unknown go test flag %s", tok)
		default:
			pkgs = append(pkgs, tok)
		}
		if end {
			break
		}
	}
	return patterns, pkgs, nil
}

// shellWords splits s on blanks, keeping single-quoted words whole (quotes
// removed).
func shellWords(s string) []string {
	var out []string
	var w strings.Builder
	in, started := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			in, started = !in, true
		case !in && (r == ' ' || r == '\t'):
			if started {
				out = append(out, w.String())
				w.Reset()
				started = false
			}
		default:
			w.WriteRune(r)
			started = true
		}
	}
	if started {
		out = append(out, w.String())
	}
	return out
}

// splitTopLevel splits a regular expression on sep outside brackets,
// parentheses and escapes, as go test splits -run on `/`.
func splitTopLevel(re string, sep byte) []string {
	var out []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			out = append(out, re[start:i])
			start = i + 1
		}
	}
	return append(out, re[start:])
}

// packageDirs resolves a package argument to directories: a path, or a
// path ending in /... for every package below it in the same module.
func packageDirs(arg string) ([]string, error) {
	base, recursive := strings.CutSuffix(filepath.ToSlash(arg), "/...")
	if !recursive {
		return []string{filepath.Clean(arg)}, nil
	}
	var dirs []string
	err := filepath.WalkDir(filepath.FromSlash(base), func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != filepath.FromSlash(base) {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is not part of ./...
			}
		}
		dirs = append(dirs, filepath.Clean(p))
		return nil
	})
	return dirs, err
}

// testFuncs returns the names of the top-level functions declared in a
// directory's _test.go files.
func testFuncs(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var names []string
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range af.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// anyMatch reports whether re matches a function of one of the kinds.
func anyMatch(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, f := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) && re.MatchString(f) {
				return true
			}
		}
	}
	return false
}

// Package linttest runs lint analyzers over fixture packages, in the
// style of golang.org/x/tools/go/analysis/analysistest: each fixture
// is a package of the module under testdata/src/<path>/, and every
// line that should be flagged carries a trailing
//
//	// want "regexp"
//
// comment (several quoted regexps if the line yields several
// findings). The runner reports a test error for every expected
// finding that did not materialize and every finding that was not
// expected, so a fixture both proves the analyzer fires and pins the
// clean pattern that silences it.
package linttest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Run loads the fixture packages at testdata/src/<path> through
// lint.Run, applying the one analyzer, and matches its findings
// against the fixtures' want comments. Packages a fixture imports are
// module packages too, so lint.Run analyzes them as well; only
// findings in the named fixtures count.
func Run(t *testing.T, analyzer *lint.Analyzer, paths ...string) {
	t.Helper()
	var patterns, dirs []string
	for _, path := range paths {
		dir := filepath.Join("testdata", "src", path)
		abs, err := filepath.Abs(dir)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		patterns = append(patterns, "./"+filepath.ToSlash(dir))
		dirs = append(dirs, abs)
	}
	fset, diags, err := lint.Run(".", []*lint.Analyzer{analyzer}, patterns...)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	checkWants(t, analyzer.Name, fset, dirs, diags)
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// checkWants compares the findings in the fixture directories against
// the want comments of their Go files.
func checkWants(t *testing.T, analyzer string, fset *token.FileSet, dirs []string, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*want
	named := map[string]bool{}
	for _, dir := range dirs {
		named[dir] = true
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("linttest: fixture %s has no Go files (%v)", dir, err)
		}
		for _, name := range names {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("linttest: %v", err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				idx := strings.Index(line, "// want ")
				if idx < 0 {
					continue
				}
				for _, pat := range parseWantPatterns(t, name, i+1, line[idx+len("// want "):]) {
					wants = append(wants, &want{file: name, line: i + 1, re: pat})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !named[filepath.Dir(pos.Filename)] {
			continue
		}
		matched := false
		for _, w := range wants {
			if w.hit || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding at %s:%d: %s", analyzer, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: expected finding at %s:%d matching %q, got none", analyzer, filepath.Base(w.file), w.line, w.re)
		}
	}
}

// parseWantPatterns extracts the quoted regexps of one want comment.
func parseWantPatterns(t *testing.T, file string, line int, rest string) []*regexp.Regexp {
	t.Helper()
	var pats []*regexp.Regexp
	rest = strings.TrimSpace(rest)
	for rest != "" {
		if rest[0] != '"' && rest[0] != '`' {
			t.Fatalf("linttest: %s:%d: malformed want comment near %q", file, line, rest)
		}
		val, tail, err := unquotePrefix(rest)
		if err != nil {
			t.Fatalf("linttest: %s:%d: %v", file, line, err)
		}
		re, err := regexp.Compile(val)
		if err != nil {
			t.Fatalf("linttest: %s:%d: bad want regexp: %v", file, line, err)
		}
		pats = append(pats, re)
		rest = strings.TrimSpace(tail)
	}
	return pats
}

// unquotePrefix unquotes the leading Go string literal of s and
// returns its value and the remainder.
func unquotePrefix(s string) (val, rest string, err error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' && quote == '"' {
			i++
			continue
		}
		if s[i] == quote {
			val, err = strconv.Unquote(s[:i+1])
			return val, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated string in want comment: %s", s)
}

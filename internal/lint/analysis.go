package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks can migrate to
// the upstream driver unchanged.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// Pass presents one package to an analyzer: its syntax, its type
// information, and a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// directives caches the per-file directive-comment line sets,
	// built on first use.
	directives map[*ast.File]directiveLines
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Suite returns the full analyzer suite in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{
		MapIterAnalyzer,
		WallTimeAnalyzer,
		HotAllocAnalyzer,
	}
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// pathHasSegment reports whether any element of the import path equals
// one of the given segments. Matching by element rather than by full
// path keeps the analyzers testable against fixture packages
// (repro/internal/lint/testdata/src/mapiter/dsm) while still scoping
// them to repro/internal/dsm and friends.
func pathHasSegment(path string, segments ...string) bool {
	for _, el := range strings.Split(path, "/") {
		for _, s := range segments {
			if el == s {
				return true
			}
		}
	}
	return false
}

// coreSegments are the package-path elements of the deterministic core:
// packages whose execution must be byte-reproducible because reports,
// golden files and traces are derived from them.
var coreSegments = []string{"dsm", "engine", "interconnect", "trace", "telemetry", "stats"}

// inDeterministicCore reports whether the package belongs to the
// deterministic core.
func inDeterministicCore(pkg *types.Package) bool {
	return pathHasSegment(pkg.Path(), coreSegments...)
}

// directiveLines records, per file, the source lines carrying a given
// lint directive comment.
type directiveLines map[string]map[int]bool

// fileDirectives scans a file's comments for //lint:... and
// //repro:... directives and returns the line sets keyed by directive
// name ("lint:unordered", "repro:hotpath", ...). Both a comment on the
// flagged line itself and one on the line immediately above count, so
// the caller checks both.
func (p *Pass) fileDirectives(f *ast.File) directiveLines {
	if d, ok := p.directives[f]; ok {
		return d
	}
	d := directiveLines{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "lint:") && !strings.HasPrefix(text, "repro:") {
				continue
			}
			name := text
			if i := strings.IndexAny(text, " \t"); i >= 0 {
				name = text[:i]
			}
			if d[name] == nil {
				d[name] = map[int]bool{}
			}
			d[name][p.Fset.Position(c.Pos()).Line] = true
		}
	}
	if p.directives == nil {
		p.directives = map[*ast.File]directiveLines{}
	}
	p.directives[f] = d
	return d
}

// hasDirective reports whether the given directive annotates pos: the
// directive comment sits on the same line or on the line immediately
// above.
func (p *Pass) hasDirective(f *ast.File, pos token.Pos, name string) bool {
	lines := p.fileDirectives(f)[name]
	if lines == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	return lines[line] || lines[line-1]
}

// Run loads the packages matching the patterns (resolved relative to
// dir: "./..." or explicit directories such as a fixture's
// "./testdata/src/mapiter/dsm"), applies the analyzers to every module
// package among them and their dependencies, and returns the findings
// sorted by position, then analyzer name. It is the suite's one entry
// point: the repository-root lint test runs it over "./...", and
// linttest over fixture directories.
func Run(dir string, analyzers []*Analyzer, patterns ...string) (*token.FileSet, []Diagnostic, error) {
	fset, pkgs, err := loadPackages(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.files,
				Pkg:       pkg.types,
				TypesInfo: pkg.info,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.path, err)
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return fset, diags, nil
}

package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// loadedPackage is one typechecked package presented to the analyzers.
type loadedPackage struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` over the patterns in dir
// and returns the decoded package stream.
func goList(dir string, patterns ...string) ([]*listPackage, error) {
	args := []string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Module,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s", p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loadPackages loads the packages matching the patterns (resolved
// relative to dir: "./..." or explicit directories) together with
// their dependency closure. Every module package in it is parsed and
// typechecked from source, and every import — standard library or
// module-internal — is satisfied from the compiler export data `go
// list -export` reports. Only non-test Go files are analyzed, matching
// what ships in the binaries the invariants protect.
func loadPackages(dir string, patterns ...string) (*token.FileSet, []*loadedPackage, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
	var out []*loadedPackage
	for _, p := range listed {
		// -deps lists the full closure; only module packages are
		// analysis targets.
		if p.Module == nil || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := typecheck(fset, imp, p)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, pkg)
	}
	return fset, out, nil
}

// typecheck parses and typechecks one package from source, recording
// every types.Info map the analyzers read.
func typecheck(fset *token.FileSet, imp types.Importer, p *listPackage) (*loadedPackage, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typechecking %s: %v", p.ImportPath, err)
	}
	return &loadedPackage{path: p.ImportPath, files: files, types: tpkg, info: info}, nil
}

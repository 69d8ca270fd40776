package dsm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// chargingFuncs names, for each charged counter, the one function
// allowed to write it. Those that the telemetry collector mirrors also
// charge it there, so a counter written anywhere else could drift from
// its windowed series; and a later split of any of them by cause, or a
// check that the cycle counters add up, would miss that site.
var chargingFuncs = map[string]string{
	"TrafficBytes": "Machine.traffic",
	"LocalMisses":  "Machine.miss",
	"RemoteMisses": "Machine.miss",
	"PageOps":      "pageOp.count",
	"StallCycles":  "Machine.advance",
	"SyncCycles":   "Machine.chargeSync",
	"PageOpCycles": "pageOp.finish",
}

// TestCountersChargedInOnePlace parses the package's non-test sources
// and fails on any write to a charged counter (an increment, an
// assignment or a taken address) outside its charging function, or on
// a counter that is not written exactly once inside it.
func TestCountersChargedInOnePlace(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	writes := map[string]int{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := funcName(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var targets []ast.Expr
				switch s := n.(type) {
				case *ast.IncDecStmt:
					targets = []ast.Expr{s.X}
				case *ast.AssignStmt:
					if s.Tok != token.DEFINE {
						targets = s.Lhs
					}
				case *ast.UnaryExpr:
					if s.Op == token.AND {
						targets = []ast.Expr{s.X}
					}
				}
				for _, x := range targets {
					field := counterField(x)
					if field == "" {
						continue
					}
					if want := chargingFuncs[field]; fn != want {
						t.Errorf("%s: %s written in %s; only %s may charge it",
							fset.Position(x.Pos()), field, fn, want)
						continue
					}
					writes[field]++
				}
				return true
			})
		}
	}
	for field, fn := range chargingFuncs {
		if writes[field] != 1 {
			t.Errorf("%s is written %d times in %s, want once", field, writes[field], fn)
		}
	}
}

// funcName renders a function declaration as Recv.Name, or Name for a
// plain function.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// counterField returns the charged counter x writes to, looking
// through indexing, parentheses and dereferences, or "" if it writes
// none.
func counterField(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.IndexExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.SelectorExpr:
			if _, ok := chargingFuncs[e.Sel.Name]; ok {
				return e.Sel.Name
			}
			return ""
		default:
			return ""
		}
	}
}

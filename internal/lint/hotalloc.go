package lint

import (
	"go/ast"
	"go/types"
)

// HotAllocAnalyzer guards functions annotated `//repro:hotpath`
// against constructs that allocate.
//
// The replay loop dispatches one memory access per trace op; the
// fault, probe and dispatch paths it drives are pinned to 0 allocs/op
// by the dynamic allocation guard (alloc_guard_test.go at the module
// root). That guard only fires for regressions a guarded case happens
// to exercise; the analyzer rejects the allocation sources themselves
// — fmt calls, string concatenation, closures, map literals and map
// makes, interface-boxing conversions — in any function carrying the
// `//repro:hotpath` annotation, on every path. Arguments of panic
// calls are exempt: a terminating path may format its last words, and
// the compiler keeps the formatting out of the happy path.
//
// The check is not transitive: a hot function may call a cold helper
// (amortized growth, lazy construction); the helper is simply not
// annotated. TestHotPathAnnotationsPresent (lint_test.go at the module
// root) checks that the guarded hot-path files keep their annotations.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs (fmt, string concat, closures, map literals, interface boxing) in //repro:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcIsHotPath(pass, f, fd) {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
	return nil
}

// funcIsHotPath reports whether the declaration carries the
// //repro:hotpath directive in its doc comment (or immediately above
// its first line, for undocumented functions).
func funcIsHotPath(pass *Pass, f *ast.File, fd *ast.FuncDecl) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if c.Text == "//repro:hotpath" {
				return true
			}
		}
	}
	return pass.hasDirective(f, fd.Pos(), "repro:hotpath")
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(pass, n) {
				// Terminating path: everything under panic(...) may
				// allocate its message.
				return false
			}
			if pkg := calleePackagePath(pass, n); pkg == "fmt" {
				pass.Reportf(n.Pos(), "hot path %s calls %s: fmt allocates; format outside the hot path or pass pre-built values", name, calleeName(n))
				return true
			}
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
				if boxes(pass, tv.Type, n.Args[0]) {
					pass.Reportf(n.Pos(), "hot path %s converts %s to interface %s: boxing allocates; keep the concrete type or hoist the conversion", name, types.ExprString(n.Args[0]), tv.Type.String())
				}
			}
			if isMapMake(pass, n) {
				pass.Reportf(n.Pos(), "hot path %s makes a map: map allocation on the hot path; preallocate in the constructor or use a dense slice index", name)
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isStringType(pass, n.X) {
				pass.Reportf(n.Pos(), "hot path %s concatenates strings: concatenation allocates; format outside the hot path", name)
			}
		case *ast.AssignStmt:
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 && isStringType(pass, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "hot path %s appends to a string: concatenation allocates; format outside the hot path", name)
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hot path %s defines a closure: captured variables escape and the literal may allocate; hoist it to a method or package function", name)
			return false
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "hot path %s builds a map literal: map allocation on the hot path; preallocate in the constructor", name)
				}
			}
		}
		return true
	})
}

// isPanicCall reports whether the call is to the predeclared panic.
func isPanicCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// calleePackagePath returns the import path of the called function's
// package ("" for builtins, methods on local values, and indirect
// calls).
func calleePackagePath(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isMapMake reports whether the call is make(map[...]...).
func isMapMake(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isStringType reports whether the expression has string type.
func isStringType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// boxes reports whether converting arg to target boxes a concrete
// value into an interface.
func boxes(pass *Pass, target types.Type, arg ast.Expr) bool {
	if _, isIface := target.Underlying().(*types.Interface); !isIface {
		return false
	}
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	_, argIsIface := tv.Type.Underlying().(*types.Interface)
	return !argIsIface
}

package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// EventTimeAnalyzer flags a literal 0 flowing into an event-time
// parameter in the deterministic core.
//
// Every protocol message and resource acquisition carries the explicit
// simulated time of the emitting event (a `now` parameter threaded
// from the dispatched CPU's clock or a pageOp's current time). Passing
// a literal 0 injects the message at the beginning of simulated time —
// the exact flushFrame bug PR 2 fixed at run time: the dirty-frame
// writeback charged the NI, fabric and home controller at t=0 instead
// of the caller's clock, silently mis-timing NI and home occupancy and
// hiding the traffic from time-windowed views. The runtime audit
// (Fabric.EnableAudit) catches this class only on paths a sweep
// exercises; the analyzer catches it on every path at compile time.
// The rare legitimate time-0 call (initialization before the first
// dispatch) is annotated `//lint:eventtime`.
var EventTimeAnalyzer = &Analyzer{
	Name: "eventtime",
	Doc:  "flag literal-0 event-time (`now`) arguments to fabric, resource and page-op calls",
	Run:  runEventTime,
}

// eventTimeParams are the parameter names that carry an event time
// through the simulation core ("now" on the fabric/resource/page-op
// seams, "at" on scheduler unblocking).
var eventTimeParams = map[string]bool{"now": true, "at": true}

func runEventTime(pass *Pass) error {
	if !inDeterministicCore(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sig := calleeSignature(pass, call)
			if sig == nil {
				return true
			}
			params := sig.Params()
			for i, arg := range call.Args {
				if i >= params.Len() {
					break // variadic tail; event times are never variadic
				}
				prm := params.At(i)
				if !eventTimeParams[prm.Name()] || !isIntegerType(prm.Type()) {
					continue
				}
				if !isConstZero(pass, arg) {
					continue
				}
				if pass.hasDirective(f, call.Pos(), "lint:eventtime") {
					continue
				}
				pass.Reportf(arg.Pos(), "literal 0 passed as event-time parameter %q of %s: messages must enter the fabric at the emitting event's simulated time (the flushFrame time-0 bug class); pass the caller's clock, or annotate //lint:eventtime if time 0 is intended", prm.Name(), calleeName(call))
			}
			return true
		})
	}
	return nil
}

// calleeSignature resolves the signature of a call's callee, or nil
// for builtins, conversions and calls through untyped expressions.
func calleeSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// calleeName renders the callee expression for diagnostics.
func calleeName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}

// isIntegerType reports whether t is (an alias of) an integer type —
// engine.Time is an alias of int64.
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isConstZero reports whether the expression is the integer constant 0
// written literally (a named constant expressing a deliberate zero is
// not flagged; a bare 0 is).
func isConstZero(pass *Pass, e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v == 0
}

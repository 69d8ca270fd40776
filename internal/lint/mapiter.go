package lint

import (
	"go/ast"
	"go/types"
)

// MapIterAnalyzer flags `range` over a map in the deterministic core.
//
// Go randomizes map iteration order per run, so a map range whose
// effect depends on visit order (rendering, message emission, anything
// feeding a report, a hash or the fabric) silently breaks the
// byte-stable outputs the golden tests, the content-addressed result
// store and the cross-PR sweep comparisons rely on. A loop that is
// genuinely order-insensitive — collecting keys to sort afterwards,
// building another map, commutative accumulation — is annotated
// `//lint:unordered` on or directly above the `for` statement; the
// preferred alternative is to sort the keys first or to index by a
// dense integer key (slices).
var MapIterAnalyzer = &Analyzer{
	Name: "mapiter",
	Doc:  "flag range over a map in the deterministic core unless annotated //lint:unordered",
	Run:  runMapIter,
}

func runMapIter(pass *Pass) error {
	if !inDeterministicCore(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			// `for range m` draws nothing from the iteration but its
			// count; order cannot matter.
			if rs.Key == nil && rs.Value == nil {
				return true
			}
			if pass.hasDirective(f, rs.Pos(), "lint:unordered") {
				return true
			}
			pass.Reportf(rs.Pos(), "range over map %s in deterministic core: iteration order is randomized; sort the keys first or annotate the loop //lint:unordered if it is order-insensitive", types.ExprString(rs.X))
			return true
		})
	}
	return nil
}

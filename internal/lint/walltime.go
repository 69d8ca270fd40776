package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallTimeAnalyzer forbids wall-clock and global-randomness sources in
// simulation packages.
//
// The simulator's only clock is the simulated one: a time.Now (or a
// draw from the globally seeded math/rand source) anywhere in the
// simulation core makes two runs of the same trace diverge, breaking
// determinism tests, golden files and the content-addressed result
// store. Wall time is presentation-layer input — the harness
// progress/manifest code and the cmd/ and examples/ binaries may
// observe it and pass it down as a value (see
// telemetry.NewManifestAt). Randomness in generators comes from
// explicitly seeded local sources, never the shared global one.
var WallTimeAnalyzer = &Analyzer{
	Name: "walltime",
	Doc:  "forbid time.Now and global math/rand outside harness progress/manifest code and the binaries",
	Run:  runWallTime,
}

// wallTimeExemptSegments are the package-path elements allowed to
// observe wall time: the harness (progress lines, run manifests), the
// binaries, the example programs, and the serving stack (request
// latencies, uptime, load-test percentiles are wall-clock quantities;
// simulated time never leaves the harness below it).
var wallTimeExemptSegments = []string{"harness", "cmd", "examples", "serve"}

// forbiddenTimeFuncs are the wall-clock entry points of package time.
// (time.Since/Until call time.Now internally.)
var forbiddenTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallTime(pass *Pass) error {
	if pathHasSegment(pass.Pkg.Path(), wallTimeExemptSegments...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil {
				return true
			}
			// Methods are fine: a *rand.Rand with an explicit seed is
			// deterministic, and time.Time values only enter sim
			// packages as caller-supplied data.
			if obj.Signature().Recv() != nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if forbiddenTimeFuncs[obj.Name()] {
					pass.Reportf(sel.Pos(), "time.%s in simulation package %s: wall time is nondeterministic; take the time as a parameter from the harness or cmd layer", obj.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				// Constructors (New, NewSource, NewPCG, ...) build the
				// explicitly seeded local sources the core is supposed
				// to use; only draws routed through the shared global
				// source are flagged.
				if strings.HasPrefix(obj.Name(), "New") {
					return true
				}
				pass.Reportf(sel.Pos(), "global %s.%s in simulation package %s: the shared source is not seedable per run; draw from an explicitly seeded *rand.Rand instead", obj.Pkg().Name(), obj.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

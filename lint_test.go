package repro

import (
	"os"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestRepolintClean runs the full analyzer suite (internal/lint) over
// every non-test package in the module, so `go test ./...` fails on any
// finding: nondeterministic map ranges, wall-clock reads and
// allocating constructs on annotated hot paths. Run it alone with
// `go test -run TestRepolintClean -v .` to see just the findings.
func TestRepolintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module analysis in -short mode")
	}
	fset, diags, err := lint.Run(".", lint.Suite(), "./...")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		t.Errorf("%s:%d:%d: %s (%s)", pos.Filename, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
}

// TestHotPathAnnotationsPresent pins that the benchmark-guarded hot
// paths stay annotated: the hotalloc analyzer only inspects functions
// carrying //repro:hotpath, so silently dropping the annotations would
// disable the check without failing it.
func TestHotPathAnnotationsPresent(t *testing.T) {
	files := map[string]int{
		"internal/engine/engine.go":       10, // scheduler heap, resource, lock, barrier
		"internal/cache/cache.go":         10, // L1, block-cache and page-cache probe paths
		"internal/dsm/access.go":          10, // fault paths
		"internal/dsm/pageop.go":          5,  // page-op scratch
		"internal/dsm/audit.go":           3,  // event-time checks
		"internal/interconnect/fabric.go": 3,  // traverse/deliver
	}
	for name, min := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		n := strings.Count(string(src), "//repro:hotpath")
		if n < min {
			t.Errorf("%s has %d //repro:hotpath annotations, want at least %d", name, n, min)
		}
	}
}

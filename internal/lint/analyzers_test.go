package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer runs over a flagging fixture (a package inside its
// scope with `// want` expectations) and a clean fixture (the same
// construct outside the scope, or the sanctioned pattern), so the
// tests pin both that the analyzer fires and what silences it.

func TestMapIter(t *testing.T) {
	linttest.Run(t, lint.MapIterAnalyzer, "mapiter/dsm", "mapiter/harness")
}

func TestWallTime(t *testing.T) {
	linttest.Run(t, lint.WallTimeAnalyzer, "walltime/dsm", "walltime/harness", "walltime/serve")
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, lint.HotAllocAnalyzer, "hotalloc/engine")
}

// TestSuite pins the suite composition: the three analyzers, each with
// a name and documentation, names unique.
func TestSuite(t *testing.T) {
	suite := lint.Suite()
	want := []string{"mapiter", "walltime", "hotalloc"}
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
}

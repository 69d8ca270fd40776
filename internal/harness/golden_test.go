package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// goldenOptions is the fixed configuration the golden reports were
// captured under: two apps at test scale, audit on. The reports are
// fully deterministic, so any byte of drift is a real behavior change.
func goldenOptions(buf *bytes.Buffer) Options {
	return Options{Scale: 8, Apps: []string{"radix", "lu"}, Parallel: 4, Audit: true, Out: buf}
}

// TestGoldenReports locks the Figure 5 and Figure 8 text reports, the
// full scale-8 sweep and an every-system query byte-for-byte, so a
// refactor that must not move output proves it by passing them
// unregenerated. Regenerate deliberately with
// `go test ./internal/harness -run Golden -update`.
func TestGoldenReports(t *testing.T) {
	for _, name := range []string{"fig5", "fig8"} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := RunByName(name, goldenOptions(&buf)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s report drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s\n%s",
					name, path, buf.String(), want, firstDiff(buf.String(), string(want)))
			}
		})
	}
	t.Run("all-s8", func(t *testing.T) {
		text, csv := renderQuery(t, Query{Experiment: "all", Scale: 8})
		checkGolden(t, filepath.Join("testdata", "all-s8.golden"), text)
		checkGolden(t, filepath.Join("testdata", "all-s8.csv.golden"), csv)
	})
	// all-s8 runs neither scoma nor migrep-contend: this case runs every
	// registered system, on a multi-hop fabric where the contention
	// gate has hot links to find, over every paper app plus migratory.
	t.Run("systems-s8", func(t *testing.T) {
		text, csv := renderQuery(t, Query{
			Experiment: "fig5", Scale: 8, Fabric: "ring",
			Apps: []string{"barnes", "cholesky", "fmm", "lu", "ocean", "radix", "raytrace", "migratory"},
			Systems: []string{"perfect", "ccnuma", "rep", "mig", "migrep", "rnuma", "rnuma-inf",
				"rnuma-half", "rnuma-half-migrep", "scoma", "migrep-contend"},
		})
		checkGolden(t, filepath.Join("testdata", "systems-s8.golden"), text)
		checkGolden(t, filepath.Join("testdata", "systems-s8.csv.golden"), csv)
	})
}

// renderQuery renders what `experiments ... -csv` writes for q, with
// audits on: each experiment's text report followed by a blank line,
// and the CSV rows of all its experiments under one header. Text and
// CSV together pin every experiment, system and fabric the query
// covers, down to exec cycles and traffic bytes.
func renderQuery(t *testing.T, q Query) (text, csv []byte) {
	t.Helper()
	var textBuf, csvBuf bytes.Buffer
	if err := WriteCSVHeader(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := q.Normalize().Validate(); err != nil {
		t.Fatal(err)
	}
	o := q.Options(Options{Parallel: 4, Audit: true, Traces: NewTraceCache(), Out: &textBuf})
	for _, name := range q.ExperimentNames() {
		r, err := RunByName(name, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.WriteCSVRows(&csvBuf); err != nil {
			t.Fatal(err)
		}
		textBuf.WriteByte('\n')
	}
	return textBuf.Bytes(), csvBuf.Bytes()
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden file %s\n%s", path, firstDiff(string(got), string(want)))
	}
}

// firstDiff points at the first differing line, which beats eyeballing
// two whole reports.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("first difference at line %d:\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("reports differ in length: got %d lines, want %d", len(g), len(w))
}

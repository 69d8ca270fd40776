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

// TestGoldenReports locks the Figure 5 and Figure 8 text reports
// byte-for-byte. The golden files were captured before the Policy/
// registry redesign, so a passing run proves the redesigned systems
// reproduce the pre-existing reports exactly. Regenerate deliberately
// with `go test ./internal/harness -run Golden -update`.
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
		text, csv := fullSweep(t)
		checkGolden(t, filepath.Join("testdata", "all-s8.golden"), text)
		checkGolden(t, filepath.Join("testdata", "all-s8.csv.golden"), csv)
	})
}

// fullSweep renders what `experiments -experiment all -scale 8 -csv`
// writes: every Experiments() entry over all apps with audits on, the
// text reports each followed by a blank line, and the CSV rows of all
// experiments under one header. Text and CSV together pin every
// experiment, system and fabric, down to exec cycles and traffic bytes.
func fullSweep(t *testing.T) (text, csv []byte) {
	t.Helper()
	var textBuf, csvBuf bytes.Buffer
	if err := WriteCSVHeader(&csvBuf); err != nil {
		t.Fatal(err)
	}
	o := Options{Scale: 8, Parallel: 4, Audit: true, Traces: NewTraceCache(), Out: &textBuf}
	for _, name := range Experiments() {
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

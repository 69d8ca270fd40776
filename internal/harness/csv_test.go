package harness

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// writeCSV renders one experiment the way cmd/experiments -csv does:
// the column header, then the experiment's rows.
func writeCSV(w io.Writer, r *Result) error {
	if err := WriteCSVHeader(w); err != nil {
		return err
	}
	return r.WriteCSVRows(w)
}

func TestResultWriteCSV(t *testing.T) {
	var out bytes.Buffer
	r, err := RunByName("fig5", opts(&out, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := writeCSV(&csv, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// header + one row per system
	if want := 1 + len(r.Systems); len(lines) != want {
		t.Fatalf("got %d lines, want %d", len(lines), want)
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "fig5,radix,") {
			t.Errorf("bad row: %s", line)
		}
	}
}

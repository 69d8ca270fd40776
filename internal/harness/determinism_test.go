package harness

import (
	"bytes"
	"testing"
)

// fig5Sweep runs the golden-configuration Figure 5 sweep with the given
// worker count and returns the rendered report and the CSV rows.
func fig5Sweep(t *testing.T, parallel int) (report, csv []byte) {
	t.Helper()
	var buf bytes.Buffer
	o := goldenOptions(&buf)
	o.Parallel = parallel
	r, err := RunByName("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	var rows bytes.Buffer
	if err := writeCSV(&rows, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rows.Bytes()
}

// TestSweepDeterministicAcrossWorkers locks in that the harness worker
// pool only affects wall-clock time: the rendered report and the CSV
// records of the Figure 5 sweep are byte-identical whether the
// simulations run serially or on 4 or 8 workers, and across repeated
// runs. Simulations are independent deterministic machines, so any
// drift here means shared mutable state leaked between runs (e.g.
// through the shared trace or a results race).
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-run determinism sweep in -short mode")
	}
	refReport, refCSV := fig5Sweep(t, 1)
	for _, parallel := range []int{1, 4, 8} {
		report, csv := fig5Sweep(t, parallel)
		if !bytes.Equal(report, refReport) {
			t.Errorf("Parallel=%d report differs from serial run\n%s",
				parallel, firstDiff(string(report), string(refReport)))
		}
		if !bytes.Equal(csv, refCSV) {
			t.Errorf("Parallel=%d CSV differs from serial run\n%s",
				parallel, firstDiff(string(csv), string(refCSV)))
		}
	}
}

package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// opts builds fast test options over a subset of applications. Audit is
// on for every harness test: each simulation runs under event-time
// discipline and the internal/audit conservation checks, so a protocol
// accounting bug fails the suite even where no assertion looks.
func opts(buf *bytes.Buffer, appNames ...string) Options {
	if len(appNames) == 0 {
		appNames = []string{"radix"}
	}
	return Options{Scale: 8, Apps: appNames, Parallel: 4, Out: buf, Audit: true}
}

func TestFig5Structure(t *testing.T) {
	var buf bytes.Buffer
	r, err := RunByName("fig5", opts(&buf, "radix", "lu"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Systems) != 6 {
		t.Errorf("systems = %v, want 6", r.Systems)
	}
	if got := slices.Sorted(slices.Values(r.AppOrder)); len(got) != 2 || got[0] != "lu" || got[1] != "radix" {
		t.Errorf("apps = %v", got)
	}
	for _, app := range r.AppOrder {
		for _, sys := range r.Systems {
			if r.Norm(app, sys) <= 0 {
				t.Errorf("%s on %s: nonpositive normalized time", app, sys)
			}
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 5") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "mean") {
		t.Error("missing mean row")
	}
}

func TestTable4Structure(t *testing.T) {
	var buf bytes.Buffer
	r, err := RunByName("table4", opts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Systems) != 3 {
		t.Errorf("systems = %v", r.Systems)
	}
	out := buf.String()
	for _, col := range []string{"migration", "replication", "relocation", "R-NUMA"} {
		if !strings.Contains(out, col) {
			t.Errorf("missing column %q", col)
		}
	}
}

func TestFig6SlowCostsMore(t *testing.T) {
	var buf bytes.Buffer
	r, err := RunByName("fig6", opts(&buf, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	// Slow page operations can only hurt.
	if r.Norm("radix", "R-NUMA-Slow") < r.Norm("radix", "R-NUMA-Fast") {
		t.Errorf("slow R-NUMA (%.3f) faster than fast (%.3f)",
			r.Norm("radix", "R-NUMA-Slow"), r.Norm("radix", "R-NUMA-Fast"))
	}
	if r.Norm("radix", "MigRep-Slow") < r.Norm("radix", "MigRep-Fast") {
		t.Errorf("slow MigRep faster than fast")
	}
}

func TestFig7LatencyHurtsCCNUMAMost(t *testing.T) {
	var buf bytes.Buffer
	r7, err := RunByName("fig7", opts(&buf, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	var b5 bytes.Buffer
	r5, err := RunByName("fig5", opts(&b5, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	// 4x network latency must increase CC-NUMA's normalized time.
	if r7.Norm("radix", "CC-NUMA") <= r5.Norm("radix", "CC-NUMA") {
		t.Errorf("4x latency did not slow CC-NUMA: %.3f vs %.3f",
			r7.Norm("radix", "CC-NUMA"), r5.Norm("radix", "CC-NUMA"))
	}
	// And R-NUMA must stay the best of the three.
	if r7.Norm("radix", "R-NUMA") > r7.Norm("radix", "CC-NUMA") {
		t.Errorf("R-NUMA (%.3f) worse than CC-NUMA (%.3f) at 4x latency",
			r7.Norm("radix", "R-NUMA"), r7.Norm("radix", "CC-NUMA"))
	}
}

func TestFig8Structure(t *testing.T) {
	var buf bytes.Buffer
	r, err := RunByName("fig8", opts(&buf, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Systems) != 5 {
		t.Errorf("systems = %v", r.Systems)
	}
	// Halving the page cache cannot help radix.
	if r.Norm("radix", "R-NUMA-1/2") < r.Norm("radix", "R-NUMA")-0.01 {
		t.Errorf("half cache (%.3f) meaningfully beats full cache (%.3f)",
			r.Norm("radix", "R-NUMA-1/2"), r.Norm("radix", "R-NUMA"))
	}
}

func TestRunByName(t *testing.T) {
	for _, name := range Experiments() {
		var buf bytes.Buffer
		if _, err := RunByName(name, opts(&buf)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s: no output", name)
		}
	}
	var buf bytes.Buffer
	if _, err := RunByName("nosuch", opts(&buf)); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestUnknownAppRejected(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Scale: 8, Apps: []string{"nosuch"}, Out: &buf, Audit: true}
	if _, err := RunByName("fig5", o); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestSerialAndParallelAgree(t *testing.T) {
	var b1, b2 bytes.Buffer
	serial := Options{Scale: 8, Apps: []string{"radix"}, Parallel: 0, Out: &b1, Audit: true}
	parallel := Options{Scale: 8, Apps: []string{"radix"}, Parallel: 8, Out: &b2, Audit: true}
	r1, err := RunByName("fig5", serial)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunByName("fig5", parallel)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range r1.Systems {
		if r1.Norm("radix", sys) != r2.Norm("radix", sys) {
			t.Errorf("%s: serial %.6f != parallel %.6f", sys,
				r1.Norm("radix", sys), r2.Norm("radix", sys))
		}
	}
}

func TestMeanNorm(t *testing.T) {
	r := &Result{
		AppOrder: []string{"a", "b"},
		Runs: map[string]map[string]*Run{
			"a": {"X": {Norm: 1.0}},
			"b": {"X": {Norm: 3.0}},
		},
	}
	if got := r.MeanNorm("X"); got != 2.0 {
		t.Errorf("mean = %v, want 2", got)
	}
	if got := r.MeanNorm("Y"); got != 0 {
		t.Errorf("mean of absent system = %v, want 0", got)
	}
}

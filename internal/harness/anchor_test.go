package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
)

// TestBaselineAnchor: dsm.RunBaseline is the harness's one
// normalization anchor. Perfect CC-NUMA normalizes to exactly 1 against
// it, and on a ring fabric every run's Norm is its own execution time
// over the baseline's, which stays on the ideal crossbar.
func TestBaselineAnchor(t *testing.T) {
	var buf bytes.Buffer
	o := opts(&buf, "radix", "lu")
	o.Systems = []string{"perfect"}
	r, err := RunByName("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range r.AppOrder {
		if n := r.Norm(app, "Perfect"); n != 1.0 {
			t.Errorf("%s: perfect normalized = %v, want exactly 1", app, n)
		}
	}

	o = opts(&buf, "radix")
	o.Systems = []string{"perfect", "ccnuma", "migrep", "rnuma"}
	o.Fabric = config.TopoRing
	o.Traces = NewTraceCache()
	r, err = RunByName("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	info, err := apps.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	ring := config.DefaultCluster()
	ring.Net = config.Network{Topology: config.TopoRing}
	tr, _, err := o.Traces.Trace(info, apps.Params{CPUs: ring.TotalCPUs(), Scale: o.Scale})
	if err != nil {
		t.Fatal(err)
	}
	// Handing RunBaseline the ring cluster checks that it resets the
	// fabric itself.
	base, err := dsm.RunBaseline(tr, ring, dsm.RunOptions{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range r.Systems {
		run := r.Runs["radix"][sys]
		if run.Fabric != config.TopoRing {
			t.Fatalf("%s ran on %q, want ring", sys, run.Fabric)
		}
		want := float64(run.Stats.ExecCycles) / float64(base.ExecCycles)
		if run.Norm != want {
			t.Errorf("%s: Norm = %v, want %d/%d = %v", sys, run.Norm, run.Stats.ExecCycles, base.ExecCycles, want)
		}
	}
}

// TestDuplicateListsRejected: an application, system (in any spelling
// the registry folds) or sweep scale named twice fails up front instead
// of printing repeated rows, collapsed columns or a repeated table.
func TestDuplicateListsRejected(t *testing.T) {
	cases := []struct {
		name, experiment, want string
		o                      Options
	}{
		{"apps", "fig5", `application "radix" listed twice`, Options{Apps: []string{"radix", "radix"}}},
		{"systems", "fig5", `system "CCNUMA" listed twice`, Options{Apps: []string{"radix"}, Systems: []string{"ccnuma", "CCNUMA"}}},
		{"scales", "scalesweep", "scale 64 listed twice", Options{Apps: []string{"radix"}, Scales: []int{64, 64}}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		c.o.Scale, c.o.Out = 64, &buf
		_, err := RunByName(c.experiment, c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: rendered %d bytes before rejecting", c.name, buf.Len())
		}
		q := Query{Experiment: c.experiment, Apps: c.o.Apps, Systems: c.o.Systems, Scale: 64, Scales: c.o.Scales}
		if err := q.Normalize().Validate(); err == nil || !strings.Contains(err.Error(), "listed twice") {
			t.Errorf("%s: Validate = %v, want a duplicate error", c.name, err)
		}
	}
}

package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestTopoSweepStructure(t *testing.T) {
	var buf bytes.Buffer
	r, err := RunByName("toposweep", opts(&buf, "migratory"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Systems) != 12 {
		t.Errorf("systems = %d, want 3 systems x 4 fabrics", len(r.Systems))
	}
	out := buf.String()
	for _, want := range []string{"Topology sweep", "maximum per-link load", "CC-NUMA@ring", "MigRep@mesh"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, app := range r.AppOrder {
		for _, sys := range r.Systems {
			if r.Norm(app, sys) <= 0 {
				t.Errorf("%s on %s: nonpositive normalized time", app, sys)
			}
		}
	}
	// The interconnect view must be populated for every run.
	for _, sys := range r.Systems {
		st := r.Runs["migratory"][sys].Stats
		if st.Net == nil || len(st.Net.Links) == 0 {
			t.Fatalf("%s: missing interconnect stats", sys)
		}
	}
	// The paper's argument at link granularity: under migratory sharing
	// the bulk page moves of MigRep load the hottest link strictly more
	// than fine-grain R-NUMA on the multi-hop fabrics.
	for _, topo := range []string{"ring", "mesh"} {
		mr := r.Runs["migratory"]["MigRep@"+topo].Stats.Net.MaxLink()
		rn := r.Runs["migratory"]["R-NUMA@"+topo].Stats.Net.MaxLink()
		if mr.Bytes <= rn.Bytes {
			t.Errorf("%s: MigRep max link %d not above R-NUMA %d", topo, mr.Bytes, rn.Bytes)
		}
	}
}

// TestTopoSweepCrossbarMatchesFig5 pins the compatibility contract at
// the experiment level: the sweep's crossbar column must reproduce the
// Figure 5 numbers exactly.
func TestTopoSweepCrossbarMatchesFig5(t *testing.T) {
	var b1, b2 bytes.Buffer
	sweep, err := RunByName("toposweep", opts(&b1, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := RunByName("fig5", opts(&b2, "radix"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"CC-NUMA", "MigRep", "R-NUMA"} {
		got := sweep.Norm("radix", sys+"@crossbar")
		want := fig5.Norm("radix", sys)
		if got != want {
			t.Errorf("%s: crossbar sweep norm %v != fig5 norm %v", sys, got, want)
		}
	}
}

// TestTopoSweepDeterministic renders the experiment twice and requires
// byte-identical reports, the property the CSV/golden outputs in CI
// rely on.
func TestTopoSweepDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	if _, err := RunByName("toposweep", opts(&b1, "migratory")); err != nil {
		t.Fatal(err)
	}
	if _, err := RunByName("toposweep", opts(&b2, "migratory")); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("two identical sweeps rendered different reports")
	}
}

package dsm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
)

// TestAlternateClusterGeometries runs a workload on machine shapes other
// than the paper's 8x4 — the simulator must not bake in the default
// geometry anywhere.
func TestAlternateClusterGeometries(t *testing.T) {
	shapes := []config.Cluster{
		{Nodes: 4, CPUsPerNode: 8},
		{Nodes: 16, CPUsPerNode: 2},
		{Nodes: 2, CPUsPerNode: 4},
		{Nodes: 1, CPUsPerNode: 4}, // a single SMP: no remote traffic at all
	}
	tm, th := config.Default(), config.DefaultThresholds()
	for _, cl := range shapes {
		tr, err := apps.GenerateSynthetic(apps.SynWriteShared,
			apps.SyntheticParams{CPUs: cl.TotalCPUs(), KBPerNode: 64, Iters: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []Spec{CCNUMA(), MigRep(), RNUMA()} {
			m, err := NewMachine(spec, cl, tm, th, tr.Footprint, tr.Name)
			if err != nil {
				t.Fatalf("%dx%d %s: %v", cl.Nodes, cl.CPUsPerNode, spec.Name, err)
			}
			if err := m.Execute(tr); err != nil {
				t.Fatalf("%dx%d %s: %v", cl.Nodes, cl.CPUsPerNode, spec.Name, err)
			}
			if err := m.Verify(); err != nil {
				t.Errorf("%dx%d %s: %v", cl.Nodes, cl.CPUsPerNode, spec.Name, err)
			}
			if cl.Nodes == 1 && m.Stats().TotalRemoteMisses() != 0 {
				t.Errorf("single-node cluster produced %d remote misses",
					m.Stats().TotalRemoteMisses())
			}
		}
	}
}

// TestGeometryDeterminism: alternate shapes replay deterministically
// too.
func TestGeometryDeterminism(t *testing.T) {
	cl := config.Cluster{Nodes: 4, CPUsPerNode: 8}
	tr, err := apps.GenerateSynthetic(apps.SynWriteShared,
		apps.SyntheticParams{CPUs: cl.TotalCPUs(), KBPerNode: 64, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunWithOptions(tr, RNUMA(), cl, config.Default(), config.DefaultThresholds(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWithOptions(tr, RNUMA(), cl, config.Default(), config.DefaultThresholds(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles != b.ExecCycles || a.TotalTrafficBytes() != b.TotalTrafficBytes() {
		t.Error("nondeterministic replay on 4x8 cluster")
	}
}

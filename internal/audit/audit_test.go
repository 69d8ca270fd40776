package audit_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/trace"
)

// auditTrace is a read/write sharing workload that exercises fills,
// upgrades, invalidations, writebacks, page faults and — on the MigRep
// and R-NUMA systems — every page-operation path.
func auditTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := apps.GenerateSynthetic(apps.SynMigratory,
		apps.SyntheticParams{CPUs: 32, KBPerNode: 256, Iters: 6})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// runAudited executes a trace on an audited machine and returns it.
func runAudited(t *testing.T, spec dsm.Spec, net config.Network, tr *trace.Trace) *dsm.Machine {
	t.Helper()
	cl := config.DefaultCluster()
	cl.Net = net
	m, err := dsm.NewMachine(spec, cl, config.Default(), config.DefaultThresholds(),
		tr.Footprint, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableAudit()
	if err := m.Execute(tr); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFigure5SystemsCleanOnAllFabrics is the acceptance matrix of
// ISSUE 2: every Figure-5 system on every fabric must complete with
// zero event-time or conservation violations.
func TestFigure5SystemsCleanOnAllFabrics(t *testing.T) {
	tr := auditTrace(t)
	fabrics := []config.Network{
		{Topology: config.TopoCrossbar},
		{Topology: config.TopoRing},
		{Topology: config.TopoMesh},
		{Topology: config.TopoFatTree},
	}
	for _, net := range fabrics {
		for _, spec := range dsm.AllBaseSystems() {
			m := runAudited(t, spec, net, tr)
			if err := audit.Check(m); err != nil {
				t.Errorf("%s on %s: %v", spec.Name, net.Kind(), err)
			}
		}
	}
}

// TestConservationSemantics locks the semantics of the conservation
// check the audit subsystem runs: for every Figure-5 system on the
// crossbar and the mesh, the summed per-node TrafficBytes equal the
// published NetStats' per-pair byte totals (plus node-local messages),
// and the per-link totals equal the per-pair bytes weighted by route
// length.
// audit.Check must agree with the explicit sums, in both directions.
func TestConservationSemantics(t *testing.T) {
	tr := auditTrace(t)
	for _, net := range []config.Network{
		{Topology: config.TopoCrossbar},
		{Topology: config.TopoMesh},
	} {
		for _, spec := range dsm.AllBaseSystems() {
			m := runAudited(t, spec, net, tr)
			ns := m.Stats().Net
			topo := m.Fabric().Topology()
			var pair, hopWeighted int64
			for s := 0; s < topo.Nodes; s++ {
				for d := 0; d < topo.Nodes; d++ {
					pair += ns.Pairs[s][d]
					hopWeighted += ns.Pairs[s][d] * int64(len(topo.Route(s, d)))
				}
			}
			counted := m.Stats().TotalTrafficBytes()
			if counted == 0 {
				t.Fatalf("%s on %s: workload generated no traffic", spec.Name, net.Kind())
			}
			if got := pair + ns.LocalBytes; got != counted {
				t.Errorf("%s on %s: fabric injected %d bytes, node counters total %d",
					spec.Name, net.Kind(), got, counted)
			}
			if got := ns.TotalLinkBytes(); got != hopWeighted {
				t.Errorf("%s on %s: links carried %d bytes, hop-weighted injection %d",
					spec.Name, net.Kind(), got, hopWeighted)
			}
			if err := audit.Check(m); err != nil {
				t.Errorf("%s on %s: audit disagrees with explicit sums: %v",
					spec.Name, net.Kind(), err)
			}
		}
	}
}

// TestCheckRejectsImbalancedBooks drives audit.Check with a machine
// whose node counters, and then whose published link counters, were
// skewed after the run: the conservation checks must fail, proving the
// audit has teeth.
func TestCheckRejectsImbalancedBooks(t *testing.T) {
	tr := auditTrace(t)
	m := runAudited(t, dsm.CCNUMA(), config.Network{}, tr)
	if err := audit.Check(m); err != nil {
		t.Fatalf("clean run failed audit: %v", err)
	}
	m.Stats().Nodes[0].TrafficBytes += 64 // cook the books
	if err := audit.Check(m); err == nil {
		t.Error("audit accepted imbalanced traffic counters")
	}
	m.Stats().Nodes[0].TrafficBytes -= 64
	m.Stats().Net.Links[0].Bytes += 64
	if err := audit.Check(m); err == nil || !strings.Contains(err.Error(), "link conservation") {
		t.Errorf("audit accepted imbalanced link counters: %v", err)
	}
}

package dsm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// topoCluster returns the default cluster with the given fabric.
func topoCluster(net config.Network) config.Cluster {
	cl := config.DefaultCluster()
	cl.Net = net
	return cl
}

// runOnTopo executes a trace on a machine with the given fabric.
func runOnTopo(t *testing.T, spec Spec, net config.Network, tr *trace.Trace) *Machine {
	t.Helper()
	m, err := NewMachine(spec, topoCluster(net), config.Default(),
		config.DefaultThresholds(), tr.Footprint, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(tr); err != nil {
		t.Fatal(err)
	}
	return m
}

func sharingTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := apps.GenerateSynthetic(apps.SynReadShared,
		apps.SyntheticParams{CPUs: 32, KBPerNode: 128, Iters: 4})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

var testNetworks = []config.Network{
	{}, // default ideal crossbar
	{Topology: config.TopoRing},
	{Topology: config.TopoMesh},
	{Topology: config.TopoFatTree},
}

// TestTrafficConservation checks, for every topology and several
// systems, the two fabric invariants: the bytes injected per node pair
// (plus node-local messages) equal the node traffic counters, and the
// per-link totals equal the per-pair bytes multiplied by each pair's
// route hop count.
func TestTrafficConservation(t *testing.T) {
	tr := sharingTrace(t)
	for _, net := range testNetworks {
		for _, spec := range []Spec{CCNUMA(), MigRep(), RNUMA()} {
			m := runOnTopo(t, spec, net, tr)
			topo := m.Fabric().Topology()
			name := topo.Name
			ns := m.Stats().Net
			if ns == nil {
				t.Fatalf("%s/%s: stats.Net not populated", name, spec.Name)
			}
			if ns != m.Fabric().Stats() {
				t.Errorf("%s/%s: stats.Net is not the NetStats the fabric counted into", name, spec.Name)
			}
			var pairTotal, hopWeighted int64
			for s := 0; s < topo.Nodes; s++ {
				for d := 0; d < topo.Nodes; d++ {
					pairTotal += ns.Pairs[s][d]
					hopWeighted += ns.Pairs[s][d] * int64(len(topo.Route(s, d)))
				}
			}
			if got := pairTotal + ns.LocalBytes; got != m.Stats().TotalTrafficBytes() {
				t.Errorf("%s/%s: injected %d bytes, traffic counters say %d",
					name, spec.Name, got, m.Stats().TotalTrafficBytes())
			}
			if got := ns.TotalLinkBytes(); got != hopWeighted {
				t.Errorf("%s/%s: link bytes %d, want hop-weighted %d",
					name, spec.Name, got, hopWeighted)
			}
		}
	}
}

// TestCrossbarLinkTotalsMatchTrafficCounters pins the compatibility
// contract of the default fabric: on the single-hop crossbar the
// per-link totals (plus node-local messages) are exactly the
// pre-existing per-node network-traffic counters.
func TestCrossbarLinkTotalsMatchTrafficCounters(t *testing.T) {
	tr := sharingTrace(t)
	for _, spec := range []Spec{CCNUMA(), Rep(), Mig(), MigRep(), RNUMA(), SCOMA()} {
		m := runOnTopo(t, spec, config.Network{}, tr)
		ns := m.Stats().Net
		if m.Stats().TotalTrafficBytes() == 0 {
			t.Fatalf("%s: workload generated no traffic", spec.Name)
		}
		if got := ns.TotalLinkBytes() + ns.LocalBytes; got != m.Stats().TotalTrafficBytes() {
			t.Errorf("%s: crossbar links %d + local %d != traffic %d",
				spec.Name, ns.TotalLinkBytes(), ns.LocalBytes, m.Stats().TotalTrafficBytes())
		}
	}
}

// TestCrossbarTimingUnchangedByFabric checks the implicit default
// fabric and an explicitly configured ideal crossbar are the same
// machine. (The absolute flat-model latencies — roundTrip ==
// RemoteMiss, page faults == SoftTrap + 2 network latencies — are
// pinned against Table 3 constants in machine_test.go, which now runs
// through the fabric path.)
func TestCrossbarTimingUnchangedByFabric(t *testing.T) {
	tr := sharingTrace(t)
	a := runOnTopo(t, CCNUMA(), config.Network{}, tr)
	b := runOnTopo(t, CCNUMA(), config.Network{Topology: config.TopoCrossbar}, tr)
	if a.Stats().ExecCycles != b.Stats().ExecCycles {
		t.Errorf("implicit and explicit crossbar differ: %d vs %d cycles",
			a.Stats().ExecCycles, b.Stats().ExecCycles)
	}
}

// TestMultiHopFabricsSlowRemoteTraffic checks the topology axis has
// teeth: with per-hop latency, the ring (mean hops > 1) must run the
// same sharing workload slower than the single-hop crossbar.
func TestMultiHopFabricsSlowRemoteTraffic(t *testing.T) {
	tr := sharingTrace(t)
	xbar := runOnTopo(t, CCNUMA(), config.Network{}, tr)
	ring := runOnTopo(t, CCNUMA(), config.Network{Topology: config.TopoRing}, tr)
	if ring.Stats().ExecCycles <= xbar.Stats().ExecCycles {
		t.Errorf("ring exec %d not above crossbar %d",
			ring.Stats().ExecCycles, xbar.Stats().ExecCycles)
	}
	// Traffic volume is a property of the protocol, not the fabric.
	if ring.Stats().TotalTrafficBytes() != xbar.Stats().TotalTrafficBytes() {
		t.Errorf("ring traffic %d differs from crossbar %d",
			ring.Stats().TotalTrafficBytes(), xbar.Stats().TotalTrafficBytes())
	}
}

// TestMigRepCongestsLinksMoreThanFineGrain reproduces the paper's
// traffic argument at link granularity: under migratory sharing on a
// multi-hop fabric, the bulk 4-KB page moves of migration/replication
// load the hottest link strictly more than R-NUMA's fine-grain 64-byte
// fills of the same workload.
func TestMigRepCongestsLinksMoreThanFineGrain(t *testing.T) {
	tr, err := apps.GenerateSynthetic(apps.SynMigratory,
		apps.SyntheticParams{CPUs: 32, KBPerNode: 256, Iters: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []config.Network{
		{Topology: config.TopoMesh},
		{Topology: config.TopoRing},
	} {
		mr := runOnTopo(t, MigRep(), net, tr)
		rn := runOnTopo(t, RNUMA(), net, tr)
		if mr.Stats().PageOpsByKind(stats.Migration) == 0 {
			t.Fatalf("%s: MigRep performed no migrations", net.Topology)
		}
		mrMax := mr.Stats().Net.MaxLink()
		rnMax := rn.Stats().Net.MaxLink()
		if mrMax.Bytes <= rnMax.Bytes {
			t.Errorf("%s: MigRep max link %d (%s) not above R-NUMA %d (%s)",
				net.Topology, mrMax.Bytes, mrMax.Name, rnMax.Bytes, rnMax.Name)
		}
	}
}

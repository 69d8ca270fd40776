package dsm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/stats"
)

// mkNet builds a machine on a non-crossbar fabric.
func mkNet(t *testing.T, spec Spec, net config.Network) *Machine {
	t.Helper()
	cl := config.DefaultCluster()
	cl.Net = net
	m, err := NewMachine(spec, cl, config.Default(), config.DefaultThresholds(), 1<<20, "test")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestContentionDefersMovesOnHotRoute drives the contention-aware
// MigRep policy over its replication threshold while the home→requester
// route is artificially the fabric's hot spot: the move must be
// deferred (throttled), and must fire once the rest of the fabric has
// carried comparable traffic.
func TestContentionDefersMovesOnHotRoute(t *testing.T) {
	m := mkNet(t, ContentionMigRep(), config.Network{Topology: config.TopoRing})
	m.pages[0].home = 0
	c4 := m.sched.CPUByID(4)

	// Saturate the 0<->1 route relative to an otherwise idle ring.
	m.fabric.Deliver(0, 1, 1<<20, 0)

	for i := 0; i < m.th.MigRepThreshold+5; i++ {
		m.onRemoteMiss(c4, 1, 0, stats.Coherence, false)
	}
	if got := m.st.Nodes[1].PageOps[stats.Replication]; got != 0 {
		t.Fatalf("replication fired on a saturated route: %d ops", got)
	}
	if m.throttled == 0 {
		t.Fatal("no moves were throttled")
	}

	// Spread comparable traffic over the rest of the ring: the route is
	// no longer the hot spot, so the pending move goes through.
	for s := 1; s < m.cl.Nodes; s++ {
		m.fabric.Deliver(s, (s+1)%m.cl.Nodes, 1<<20, 0)
	}
	m.onRemoteMiss(c4, 1, 0, stats.Coherence, false)
	if got := m.st.Nodes[1].PageOps[stats.Replication]; got != 1 {
		t.Errorf("replication did not fire after the fabric evened out: %d ops", got)
	}
}

// TestThrottledMoveSurvivesIntervalBoundary pins the gate's contract
// that a deferred move stays pending: when the throttled reference
// lands exactly on the counter reset interval, the counters must NOT
// clear (the stock policy would reset here), so the move re-triggers
// on the next ungated miss instead of re-accumulating a full
// threshold.
func TestThrottledMoveSurvivesIntervalBoundary(t *testing.T) {
	m := mkNet(t, ContentionMigRep(), config.Network{Topology: config.TopoRing})
	m.pages[0].home = 0
	c4 := m.sched.CPUByID(4)
	m.fabric.Deliver(0, 1, 1<<20, 0) // hot route: the gate defers

	cnt := m.migCounter(0)
	cnt.sinceReset = int32(m.th.MigRepResetInterval) - 1
	cnt.read[1] = int32(m.th.MigRepThreshold) - 1
	m.onRemoteMiss(c4, 1, 0, stats.Coherence, false) // boundary + threshold, gated
	if m.throttled != 1 {
		t.Fatalf("throttled = %d, want 1", m.throttled)
	}
	if cnt.read[1] != int32(m.th.MigRepThreshold) {
		t.Fatalf("deferred move lost its counters: read[1] = %d", cnt.read[1])
	}

	// Even out the fabric: the very next miss performs the pending
	// move, and only then does the interval reset apply.
	for s := 1; s < m.cl.Nodes; s++ {
		m.fabric.Deliver(s, (s+1)%m.cl.Nodes, 1<<20, 0)
	}
	m.onRemoteMiss(c4, 1, 0, stats.Coherence, false)
	if got := m.st.Nodes[1].PageOps[stats.Replication]; got != 1 {
		t.Errorf("pending move did not fire on the next ungated miss: %d ops", got)
	}
	if cnt.sinceReset != 0 {
		t.Errorf("interval reset did not apply after the move: sinceReset = %d", cnt.sinceReset)
	}
}

// TestContentionPolicyWithoutMovesDegrades pins that clearing the
// Migration/Replication flags on the contention spec leaves the gate
// nothing to gate: the machine builds and throttles nothing.
func TestContentionPolicyWithoutMovesDegrades(t *testing.T) {
	s := ContentionMigRep()
	s.Migration, s.Replication = false, false
	m, err := NewMachine(s, config.DefaultCluster(), config.Default(),
		config.DefaultThresholds(), 1<<20, "test")
	if err != nil {
		t.Fatal(err)
	}
	if m.throttled != 0 {
		t.Error("moveless policy reports throttles")
	}
}

// TestPlainMigRepNeverThrottles pins that the stock policy has no gate:
// the contention behavior exists only in the registered variant.
func TestPlainMigRepNeverThrottles(t *testing.T) {
	m := mkNet(t, MigRep(), config.Network{Topology: config.TopoRing})
	m.pages[0].home = 0
	c4 := m.sched.CPUByID(4)
	m.fabric.Deliver(0, 1, 1<<20, 0) // same hot route as above
	for i := 0; i < m.th.MigRepThreshold; i++ {
		m.onRemoteMiss(c4, 1, 0, stats.Coherence, false)
	}
	if m.throttled != 0 {
		t.Errorf("ungated policy throttled %d moves", m.throttled)
	}
	if got := m.st.Nodes[1].PageOps[stats.Replication]; got != 1 {
		t.Errorf("stock replication did not fire: %d ops", got)
	}
}

// TestContentionMigRepRunsCleanUnderAudit executes a whole migratory
// workload on the ring under the contention policy with the event-time
// and conservation audits on: the policy must not break any protocol
// invariant.
func TestContentionMigRepRunsCleanUnderAudit(t *testing.T) {
	tr, err := apps.GenerateSynthetic(apps.SynMigratory, apps.SyntheticParams{CPUs: 32, KBPerNode: 96, Iters: 8})
	if err != nil {
		t.Fatal(err)
	}
	cl := config.DefaultCluster()
	cl.Net = config.Network{Topology: config.TopoRing}
	sim, err := RunWithOptions(tr, ContentionMigRep(), cl, config.Default(),
		config.DefaultThresholds(), RunOptions{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ExecCycles == 0 {
		t.Fatal("no execution recorded")
	}
	// The gate can only defer moves, never add them: the contention
	// variant performs at most as many page moves as stock MigRep.
	base, err := RunWithOptions(tr, MigRep(), cl, config.Default(),
		config.DefaultThresholds(), RunOptions{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	moves := func(s *stats.Sim) int64 {
		return s.PageOpsByKind(stats.Migration) + s.PageOpsByKind(stats.Replication)
	}
	if moves(sim) > moves(base) {
		t.Errorf("contention gate increased page moves: %d > %d", moves(sim), moves(base))
	}
}

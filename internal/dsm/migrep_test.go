package dsm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runSynthetic executes a synthetic workload on a spec and returns the
// statistics.
func runSynthetic(t *testing.T, spec Spec, kind apps.SyntheticKind, kb, iters int) *stats.Sim {
	t.Helper()
	tr, err := apps.GenerateSynthetic(kind, apps.SyntheticParams{CPUs: 32, KBPerNode: kb, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Run(tr, spec, config.DefaultCluster(), config.Default(), config.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestReplicationFiresOnReadShared(t *testing.T) {
	sim := runSynthetic(t, Rep(), apps.SynReadShared, 128, 6)
	if sim.PageOpsByKind(stats.Replication) == 0 {
		t.Fatal("read-shared workload triggered no replications")
	}
	if sim.PageOpsByKind(stats.Migration) != 0 {
		t.Error("replication-only system migrated pages")
	}
	// Replication must reduce remote traffic versus plain CC-NUMA.
	base := runSynthetic(t, CCNUMA(), apps.SynReadShared, 128, 6)
	if sim.TotalRemoteMisses() >= base.TotalRemoteMisses() {
		t.Errorf("replication did not cut remote misses: %d vs %d",
			sim.TotalRemoteMisses(), base.TotalRemoteMisses())
	}
	if sim.ExecCycles >= base.ExecCycles {
		t.Errorf("replication did not improve execution: %d vs %d",
			sim.ExecCycles, base.ExecCycles)
	}
}

func TestMigrationFiresOnMigratory(t *testing.T) {
	sim := runSynthetic(t, Mig(), apps.SynMigratory, 96, 8)
	if sim.PageOpsByKind(stats.Migration) == 0 {
		t.Fatal("migratory workload triggered no migrations")
	}
	if sim.PageOpsByKind(stats.Replication) != 0 {
		t.Error("migration-only system replicated pages")
	}
	base := runSynthetic(t, CCNUMA(), apps.SynMigratory, 96, 8)
	if sim.TotalRemoteMisses() >= base.TotalRemoteMisses() {
		t.Errorf("migration did not cut remote misses: %d vs %d",
			sim.TotalRemoteMisses(), base.TotalRemoteMisses())
	}
}

func TestReplicationDoesNotFireOnWriteShared(t *testing.T) {
	sim := runSynthetic(t, MigRep(), apps.SynWriteShared, 64, 6)
	if got := sim.PageOpsByKind(stats.Replication); got != 0 {
		t.Errorf("write-shared workload replicated %d pages", got)
	}
}

func TestCCNUMAPerformsNoPageOps(t *testing.T) {
	sim := runSynthetic(t, CCNUMA(), apps.SynReadShared, 128, 6)
	for op := stats.Migration; op <= stats.Replacement; op++ {
		if got := sim.PageOpsByKind(op); got != 0 {
			t.Errorf("CC-NUMA performed %d %v operations", got, op)
		}
	}
}

func TestWriteToReplicatedPageCollapses(t *testing.T) {
	// Build a read-shared phase long enough to replicate, then a write
	// from one node: the replicas must collapse and the write proceed.
	tr, err := apps.GenerateSynthetic(apps.SynReadShared, apps.SyntheticParams{CPUs: 32, KBPerNode: 128, Iters: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Append a write by CPU 8 (node 2) to the first block of the hot
	// region after a final barrier.
	last := uint32(0)
	for cpu := range tr.CPUs {
		tr.CPUs[cpu].Append(trace.Op{Kind: trace.Barrier, Arg: 9999})
	}
	tr.CPUs[8].Append(trace.Op{Kind: trace.Write, Arg: last})

	sim, err := Run(tr, MigRep(), config.DefaultCluster(), config.Default(), config.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if sim.PageOpsByKind(stats.Replication) == 0 {
		t.Fatal("no replications before the write")
	}
	if sim.PageOpsByKind(stats.Collapse) == 0 {
		t.Error("write to replicated page did not collapse")
	}
}

func TestMigrationMovesHome(t *testing.T) {
	tr, err := apps.GenerateSynthetic(apps.SynMigratory, apps.SyntheticParams{CPUs: 32, KBPerNode: 64, Iters: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Mig(), config.DefaultCluster(), config.Default(),
		config.DefaultThresholds(), tr.Footprint, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(tr); err != nil {
		t.Fatal(err)
	}
	if m.Stats().PageOpsByKind(stats.Migration) == 0 {
		t.Skip("no migration fired at this size")
	}
	if err := m.Verify(); err != nil {
		t.Errorf("machine inconsistent after migrations: %v", err)
	}
}

func TestMigRepCountersResetAtInterval(t *testing.T) {
	m := mk(t, MigRep())
	cnt := m.migCounter(0)
	for i := 0; i < m.th.MigRepResetInterval-1; i++ {
		cnt.read[1]++
		cnt.sinceReset++
	}
	// Drive one more poke through the public path: it must reset.
	cpu := m.sched.CPUByID(4)
	m.pt.FirstTouch(0, 0)
	m.pol.OnRemoteMiss(cpu, 1, 0, stats.Coherence, false)
	if cnt.sinceReset != 0 {
		t.Errorf("sinceReset = %d after interval, want 0", cnt.sinceReset)
	}
	if cnt.read[1] != 0 {
		t.Errorf("read counter = %d after reset", cnt.read[1])
	}
}

func TestReplicaServesLocalReads(t *testing.T) {
	sim := runSynthetic(t, Rep(), apps.SynReadShared, 128, 8)
	base := runSynthetic(t, Rep(), apps.SynReadShared, 128, 2)
	// Longer runs add sweeps after replication; the extra sweeps must
	// add mostly local misses, so remote misses grow sublinearly.
	extraRemote := sim.TotalRemoteMisses() - base.TotalRemoteMisses()
	if extraRemote > base.TotalRemoteMisses() {
		t.Errorf("post-replication sweeps still mostly remote: +%d over %d",
			extraRemote, base.TotalRemoteMisses())
	}
}

func TestGatherFlushesDirtyBlocks(t *testing.T) {
	m := mk(t, MigRep())
	cpu := m.sched.CPUByID(0)
	// Home page 0 at node 0 and dirty a block at node 1.
	m.pt.FirstTouch(0, 0)
	m.mapped[0][0] = true
	c4 := m.sched.CPUByID(4)
	m.mapped[1][0] = true
	m.pt.Entry(0).Mode[1] = 1 // ccnuma
	m.access(c4, 0, true)
	if owner, dirty := m.dir.IsDirtyRemote(0, 0); !dirty || owner != 1 {
		t.Fatalf("setup failed: owner=%d dirty=%v", owner, dirty)
	}
	flushed := m.gatherPage(m.beginPageOp(cpu, 0), 0)
	if flushed == 0 {
		t.Error("gather flushed nothing")
	}
	if _, dirty := m.dir.IsDirtyRemote(0, 0); dirty {
		t.Error("block still dirty after gather")
	}
	if m.nodeHolds(1, 0) {
		t.Error("node 1 still holds the block after gather")
	}
	_ = cpu
}

func TestSlowThresholdsReduceOps(t *testing.T) {
	tr, err := apps.GenerateSynthetic(apps.SynMigratory, apps.SyntheticParams{CPUs: 32, KBPerNode: 96, Iters: 8})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(tr, MigRep(), config.DefaultCluster(), config.Default(), config.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(tr, MigRep(), config.DefaultCluster(), config.Slow(), config.SlowThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if slow.PageOpsByKind(stats.Migration) > fast.PageOpsByKind(stats.Migration) {
		t.Errorf("raised threshold increased migrations: %d > %d",
			slow.PageOpsByKind(stats.Migration), fast.PageOpsByKind(stats.Migration))
	}
}

// TestBoundaryReferenceReachesThresholds pins the ISSUE 2 fix to
// the migrep policy's reset boundary: the reference that lands exactly on the
// reset interval must still reach the threshold checks before the
// counters clear. Previously the reset swallowed it, so a page whose
// counter crossed the threshold on its interval's final reference never
// triggered the operation.
func TestBoundaryReferenceReachesThresholds(t *testing.T) {
	m := mk(t, Rep())
	m.pt.FirstTouch(0, 0)
	cnt := m.migCounter(0)
	cnt.sinceReset = int32(m.th.MigRepResetInterval) - 1
	cnt.read[1] = int32(m.th.MigRepThreshold) - 1
	c4 := m.sched.CPUByID(4)
	m.pol.OnRemoteMiss(c4, 1, 0, stats.Coherence, false)
	if got := m.st.Nodes[1].PageOps[stats.Replication]; got != 1 {
		t.Errorf("interval's final reference fired %d replications, want 1", got)
	}
	// The counters still clear once the boundary reference is handled.
	if cnt.sinceReset != 0 || cnt.read[1] != 0 {
		t.Errorf("counters not reset after boundary: sinceReset=%d read=%d",
			cnt.sinceReset, cnt.read[1])
	}
}

// TestMigrationWeighsHomeUseOnly pins the migration condition after the
// dead cnt.total(h) term was dropped: home references accrue only to
// homeUse (never to the per-node read/write banks), and migration fires
// exactly when the requester's misses reach homeUse + threshold.
func TestMigrationWeighsHomeUseOnly(t *testing.T) {
	m := mk(t, Mig())
	m.pt.FirstTouch(0, 0)
	cnt := m.migCounter(0)
	c0 := m.sched.CPUByID(0)
	c4 := m.sched.CPUByID(4)
	for i := 0; i < 5; i++ {
		m.pol.OnHomeMiss(c0, 0, 0, i%2 == 0)
	}
	// The dead term: home references never land in the read/write banks,
	// so total(home) is identically zero and homeUse carries the whole
	// home-side weight.
	if got := cnt.total(0); got != 0 {
		t.Fatalf("home references accrued to total(home) = %d, want 0", got)
	}
	if cnt.homeUse != 5 {
		t.Fatalf("homeUse = %d, want 5", cnt.homeUse)
	}
	thr := int32(m.th.MigRepThreshold)
	cnt.read[1] = thr + 3
	m.pol.OnRemoteMiss(c4, 1, 0, stats.Coherence, false) // total(1) = thr+4 < homeUse+thr = thr+5
	if got := m.st.Nodes[1].PageOps[stats.Migration]; got != 0 {
		t.Fatalf("migration fired below homeUse+threshold: %d ops", got)
	}
	m.pol.OnRemoteMiss(c4, 1, 0, stats.Coherence, false) // total(1) = thr+5: fires
	if got := m.st.Nodes[1].PageOps[stats.Migration]; got != 1 {
		t.Errorf("migration did not fire at homeUse+threshold: %d ops", got)
	}
}

// TestGrantReplicaSerializesAndChargesHome pins the ISSUE 2 alignment of
// grantReplica with replicate: the grant keeps the page busy until the
// copy completes (SoftTrap 3000 + CopyCost(64) 21760 = 24760 cycles
// under the default timing), so concurrent accessors wait it out, and
// the home controller is occupied for a quarter of the operation.
// Previously neither happened: the page was never marked busy and the
// home stayed free during the copy.
func TestGrantReplicaSerializesAndChargesHome(t *testing.T) {
	m := mk(t, Rep())
	m.pt.FirstTouch(0, 0)
	c4 := m.sched.CPUByID(4)
	c8 := m.sched.CPUByID(8)
	m.EnableAudit()
	m.replicate(c4, 1, 0)
	homeBusy := m.home[0].Busy()
	// A real accessor waits out pageBusy in access before any page
	// operation starts; model that for the direct call.
	c8.Clock = m.pageBusy[0]
	start := c8.Clock
	m.grantReplica(c8, 2, 0)
	wantCost := config.Default().SoftTrap + config.Default().CopyCost(config.BlocksPerPage)
	if got := c8.Clock - start; got != wantCost {
		t.Errorf("grant cost = %d cycles, want %d", got, wantCost)
	}
	if got := m.pageBusy[0]; got != c8.Clock {
		t.Errorf("pageBusy = %d after grant, want %d (the grant's end)", got, c8.Clock)
	}
	if got := m.home[0].Busy(); got != homeBusy+wantCost/4 {
		t.Errorf("home busy = %d, want %d (one quarter of the grant)", got, homeBusy+wantCost/4)
	}
	if v := m.AuditViolations(); len(v) != 0 {
		t.Errorf("audit violations: %v", v)
	}
}

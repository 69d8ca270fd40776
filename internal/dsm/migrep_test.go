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
	sim, err := RunWithOptions(tr, spec, config.DefaultCluster(), config.Default(), config.DefaultThresholds(), RunOptions{})
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

	sim, err := RunWithOptions(tr, MigRep(), config.DefaultCluster(), config.Default(), config.DefaultThresholds(), RunOptions{})
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
	m.pages[0].home = 0
	m.onRemoteMiss(cpu, 1, 0, stats.Coherence, false)
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
	m.pages[0].home = 0
	m.pages[0].mapped = 1<<0 | 1<<1
	c4 := m.sched.CPUByID(4)
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
	fast, err := RunWithOptions(tr, MigRep(), config.DefaultCluster(), config.Default(), config.DefaultThresholds(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunWithOptions(tr, MigRep(), config.DefaultCluster(), config.Slow(), config.SlowThresholds(), RunOptions{})
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
	m.pages[0].home = 0
	cnt := m.migCounter(0)
	cnt.sinceReset = int32(m.th.MigRepResetInterval) - 1
	cnt.read[1] = int32(m.th.MigRepThreshold) - 1
	c4 := m.sched.CPUByID(4)
	m.onRemoteMiss(c4, 1, 0, stats.Coherence, false)
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
	m.pages[0].home = 0
	cnt := m.migCounter(0)
	c0 := m.sched.CPUByID(0)
	c4 := m.sched.CPUByID(4)
	for i := 0; i < 5; i++ {
		m.pokeMigRep(c0, 0, 0, i%2 == 0)
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
	m.onRemoteMiss(c4, 1, 0, stats.Coherence, false) // total(1) = thr+4 < homeUse+thr = thr+5
	if got := m.st.Nodes[1].PageOps[stats.Migration]; got != 0 {
		t.Fatalf("migration fired below homeUse+threshold: %d ops", got)
	}
	m.onRemoteMiss(c4, 1, 0, stats.Coherence, false) // total(1) = thr+5: fires
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
	m.pages[0].home = 0
	c4 := m.sched.CPUByID(4)
	c8 := m.sched.CPUByID(8)
	m.EnableAudit()
	m.replicate(c4, 1, 0)
	// A real accessor waits out the page's busy horizon in access
	// before any page operation starts; model that for the direct call.
	c8.Clock = m.pages[0].busy
	start := c8.Clock
	m.grantReplica(c8, 2, 0)
	wantCost := config.Default().SoftTrap + config.Default().CopyCost(config.BlocksPerPage)
	if got := c8.Clock - start; got != wantCost {
		t.Errorf("grant cost = %d cycles, want %d", got, wantCost)
	}
	if got := m.pages[0].busy; got != c8.Clock {
		t.Errorf("page busy until %d after grant, want %d (the grant's end)", got, c8.Clock)
	}
	if got := m.home[0].Peek(); got != start+wantCost/4 {
		t.Errorf("home free at %d, want %d (busy for one quarter of the grant from its start)", got, start+wantCost/4)
	}
	if v := m.AuditViolations(); len(v) != 0 {
		t.Errorf("audit violations: %v", v)
	}
}

// TestMigrateMovesHome checks a migration's effect on the page's record:
// the home moves to the requester, which maps the page, and every other
// node's mapping, the old home's included, is shot down.
func TestMigrateMovesHome(t *testing.T) {
	m := mk(t, Mig())
	m.pages[0].home = 0
	m.pages[0].mapped = 1<<0 | 1<<1 | 1<<2
	m.migrate(m.sched.CPUByID(12), 3, 0)
	if got := m.pages[0].home; got != 3 {
		t.Errorf("home = %d after migration, want 3", got)
	}
	for n := 0; n < m.cl.Nodes; n++ {
		if got := m.pages[0].mapped&(1<<n) != 0; got != (n == 3) {
			t.Errorf("node %d mapped = %v after migration to node 3", n, got)
		}
	}
	if got := m.st.Nodes[3].PageOps[stats.Migration]; got != 1 {
		t.Errorf("migrations = %d, want 1", got)
	}
}

// TestCollapseDropsReplicaWithFrame pins how a collapse accounts for a
// replica granted to a node that already holds the page in an S-COMA
// frame. The gather removes the frame and the replica goes with it, so
// the collapse counts, shoots down and messages only the other
// replicas, and the frame's node keeps its mapping. That is the current
// accounting, not a claim that it is right: the frame's node held a
// replica the collapse does not charge for.
func TestCollapseDropsReplicaWithFrame(t *testing.T) {
	m := mk(t, RNUMAHalfMigRep(256))
	m.EnableAudit()
	c4, c8, c12 := m.sched.CPUByID(4), m.sched.CPUByID(8), m.sched.CPUByID(12)
	pg := &m.pages[0]
	pg.home = 0
	pg.mapped = 1<<0 | 1<<1 | 1<<2

	// Node 1 holds the page in a frame, node 2 replicates it, and node
	// 1 is granted a replica on top of its frame.
	m.relocate(c4, 1, 0)
	m.replicate(c8, 2, 0)
	c4.Clock = pg.busy
	m.grantReplica(c4, 1, 0)
	if m.pc[1].Entry(0) == nil || pg.replicas != 1<<1|1<<2 {
		t.Fatalf("setup: frame %v, replicas %b; want node 1's frame and replicas on nodes 1 and 2",
			m.pc[1].Entry(0) != nil, pg.replicas)
	}

	// Node 3 writes the page.
	c12.Clock = pg.busy
	start, traffic := c12.Clock, m.st.Nodes[3].TrafficBytes
	m.collapse(c12, 3, 0)

	if m.pc[1].Entry(0) != nil {
		t.Error("collapse left node 1's frame in place")
	}
	if pg.replicated || pg.replicas != 0 {
		t.Errorf("after collapse: replicated %v, replicas %b", pg.replicated, pg.replicas)
	}
	if pg.mapped&(1<<2) != 0 {
		t.Error("node 2's replica mapping survived the collapse")
	}
	if pg.mapped&(1<<1) == 0 {
		t.Error("node 1 lost its mapping; the collapse no longer skips the replica that left with its frame")
	}
	tm := config.Default()
	if got, want := c12.Clock-start, tm.SoftTrap+tm.GatherCost(0)+tm.TLBShootdown; got != want {
		t.Errorf("collapse cost = %d cycles, want %d (one TLB shootdown, node 2's)", got, want)
	}
	if got, want := m.st.Nodes[3].TrafficBytes-traffic, int64(2*msgHeaderBytes); got != want {
		t.Errorf("collapse traffic = %d bytes, want %d (node 2's invalidation and ack)", got, want)
	}
	if v := m.AuditViolations(); len(v) != 0 {
		t.Errorf("audit violations: %v", v)
	}
}

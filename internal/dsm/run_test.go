package dsm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestSimulateTrace drives the library path the customworkload example
// takes for a caller's own trace: RunBaseline anchors it, RunWithOptions
// replays it on R-NUMA with the audit on, and a streaming trace makes
// R-NUMA relocate pages.
func TestSimulateTrace(t *testing.T) {
	tr, err := apps.GenerateSynthetic(apps.SynStream, apps.SyntheticParams{CPUs: 32, KBPerNode: 128, Iters: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl, ro := config.DefaultCluster(), RunOptions{Audit: true}
	base, err := RunBaseline(tr, cl, ro)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunWithOptions(tr, RNUMA(), cl, config.Default(), config.DefaultThresholds(), ro)
	if err != nil {
		t.Fatal(err)
	}
	if r.Normalized(base) <= 0 {
		t.Errorf("normalized = %v", r.Normalized(base))
	}
	if r.PageOpsByKind(stats.Relocation) == 0 {
		t.Error("custom streaming trace triggered no relocations")
	}
}

func barrierOp(id uint32, g uint32) trace.Op {
	return trace.Op{Kind: trace.Barrier, Arg: id, Gap: g}
}

func TestBarrierSynchronizesAllCPUs(t *testing.T) {
	// Every CPU pads a different amount, then hits a barrier, then does
	// one local access. Execution time = slowest pad + barrier overhead
	// + the (serialized) accesses.
	tr := &trace.Trace{Name: "barrier", CPUs: make([]trace.Stream, 32), Footprint: 1 << 20}
	for cpu := 0; cpu < 32; cpu++ {
		tr.CPUs[cpu] = trace.StreamOf(
			trace.Op{Kind: trace.Pad, Gap: uint32(1000 * (cpu + 1))},
			barrierOp(0, 0),
			rd(uint32(cpu*config.BlocksPerPage)), // own page
		)
	}
	m := run(t, CCNUMA(), tr)
	tm := config.Default()
	minWant := int64(32000) + tm.LocalMiss // slowest arrival + one miss
	got := m.Stats().ExecCycles
	if got < minWant {
		t.Errorf("exec = %d, want >= %d", got, minWant)
	}
	// Sync time must be accounted: cpu 0 waited ~31000 cycles.
	var sync int64
	for i := range m.Stats().Nodes {
		sync += m.Stats().Nodes[i].SyncCycles
	}
	if sync < 31000 {
		t.Errorf("sync cycles = %d, want at least the longest wait", sync)
	}
}

func TestLockSerializesCriticalSections(t *testing.T) {
	// All 32 CPUs take the same lock and pad 1000 cycles inside: the
	// sections must serialize, so execution takes at least 32*1000.
	tr := &trace.Trace{Name: "locks", CPUs: make([]trace.Stream, 32), Footprint: 1 << 16}
	for cpu := 0; cpu < 32; cpu++ {
		tr.CPUs[cpu] = trace.StreamOf(
			trace.Op{Kind: trace.Lock, Arg: 0},
			trace.Op{Kind: trace.Pad, Gap: 1000},
			trace.Op{Kind: trace.Unlock, Arg: 0},
		)
	}
	m := run(t, CCNUMA(), tr)
	if got := m.Stats().ExecCycles; got < 32*1000 {
		t.Errorf("exec = %d, want >= 32000 (serialized sections)", got)
	}
}

func TestLockAcquisitionChargesMemoryCost(t *testing.T) {
	tm := config.Default()
	// A single CPU taking a fresh lock pays a local transaction; a CPU
	// on another node taking it next pays a remote one.
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {{Kind: trace.Lock, Arg: 0}, {Kind: trace.Unlock, Arg: 0}},
		4: {{Kind: trace.Pad, Gap: 10000}, {Kind: trace.Lock, Arg: 0}, {Kind: trace.Unlock, Arg: 0}},
	})
	m := run(t, CCNUMA(), tr)
	want := int64(10000) + tm.RemoteMiss
	if got := m.Stats().ExecCycles; got != want {
		t.Errorf("exec = %d, want %d", got, want)
	}
}

func TestDeterministicReplay(t *testing.T) {
	tr, err := apps.GenerateSynthetic(apps.SynWriteShared, apps.SyntheticParams{CPUs: 32, KBPerNode: 64, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{CCNUMA(), MigRep(), RNUMA()} {
		a, err := Run(tr, spec, config.DefaultCluster(), config.Default(), config.DefaultThresholds())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(tr, spec, config.DefaultCluster(), config.Default(), config.DefaultThresholds())
		if err != nil {
			t.Fatal(err)
		}
		if a.ExecCycles != b.ExecCycles {
			t.Errorf("%s: nondeterministic execution: %d vs %d", spec.Name, a.ExecCycles, b.ExecCycles)
		}
		if a.TotalRemoteMisses() != b.TotalRemoteMisses() {
			t.Errorf("%s: nondeterministic misses", spec.Name)
		}
	}
}

func TestGapAdvancesClock(t *testing.T) {
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {{Kind: trace.Pad, Gap: 12345}},
	})
	m := run(t, CCNUMA(), tr)
	if got := m.Stats().ExecCycles; got != 12345 {
		t.Errorf("exec = %d, want 12345", got)
	}
}

func TestPhaseResetReplacesPages(t *testing.T) {
	// CPU 0 initializes a page before the Phase marker; CPU 4 touches
	// it first afterwards: the page must move to node 1 for free.
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {wr(0), {Kind: trace.Phase}},
		4: {{Kind: trace.Pad, Gap: 100000}, rd(0)},
	})
	m, err := NewMachine(CCNUMA(), config.DefaultCluster(), config.Default(),
		config.DefaultThresholds(), tr.Footprint, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(tr); err != nil {
		t.Fatal(err)
	}
	if home := m.HomeOf(0); home != 1 {
		t.Errorf("page homed at %d after phase re-touch, want 1", home)
	}
}

func TestAllSystemsRunAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep in -short mode")
	}
	specs := []Spec{
		PerfectCCNUMA(), CCNUMA(), Rep(), Mig(), MigRep(),
		RNUMA(), RNUMAInf(), RNUMAHalf(), RNUMAHalfMigRep(256),
	}
	for _, app := range apps.Paper() {
		tr, err := app.Generate(apps.Params{CPUs: 32, Scale: 8})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		var perfect int64
		for _, spec := range specs {
			m, err := NewMachine(spec, config.DefaultCluster(), config.Default(),
				config.DefaultThresholds(), tr.Footprint, tr.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Execute(tr); err != nil {
				t.Fatalf("%s on %s: %v", app.Name, spec.Name, err)
			}
			if err := m.Verify(); err != nil {
				t.Errorf("%s on %s: machine inconsistent: %v", app.Name, spec.Name, err)
			}
			sim := m.Stats()
			if sim.ExecCycles <= 0 {
				t.Errorf("%s on %s: nonpositive execution time", app.Name, spec.Name)
			}
			if spec.Name == "Perfect" {
				perfect = sim.ExecCycles
			} else if float64(sim.ExecCycles) < 0.95*float64(perfect) {
				// Finite systems may beat "perfect" by small margins
				// (earlier writebacks avoid 3-hop fetches), but a large
				// win indicates an accounting bug.
				t.Errorf("%s on %s: faster than perfect by >5%%: %d vs %d",
					app.Name, spec.Name, sim.ExecCycles, perfect)
			}
		}
	}
}

func TestLockStatsExposed(t *testing.T) {
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {{Kind: trace.Lock, Arg: 7}, {Kind: trace.Unlock, Arg: 7}},
	})
	m := run(t, CCNUMA(), tr)
	if got := m.LockStats()[7]; got != 1 {
		t.Errorf("lock 7 acquisitions = %d, want 1", got)
	}
}

// TestContendedLocksKeepDispatchOrder is the regression test for the
// lock-handoff bug the audit subsystem caught: Execute used to charge
// the new lock holder's acquisition cost after Unblock had already
// pushed it into the scheduler heap, mutating the heap key in place.
// The corrupted heap then dispatched CPUs out of simulated-time order
// (837+ violations over the paper sweep). Lock-heavy contention across
// nodes, run under audit, must dispatch monotonically and pass the
// conservation checks — the harness apps that cover the rest of the
// suite (radix, lu, migratory) never take a lock, so this trace is the
// only lock coverage under audit.
func TestContendedLocksKeepDispatchOrder(t *testing.T) {
	tr := &trace.Trace{Name: "lockstorm", CPUs: make([]trace.Stream, 32), Footprint: 1 << 18}
	for cpu := 0; cpu < 32; cpu++ {
		var ops []trace.Op
		if cpu < 16 {
			// Cross-node handoffs on one hot lock: every grant charges
			// the new holder a remote transaction on the lock word.
			for i := 0; i < 40; i++ {
				ops = append(ops,
					trace.Op{Kind: trace.Lock, Arg: 0, Gap: uint32(11 * (cpu + 1))},
					wr(uint32((cpu%8)*config.BlocksPerPage+i%config.BlocksPerPage)),
					trace.Op{Kind: trace.Unlock, Arg: 0})
			}
		} else {
			// Dense independent ticks: the scheduler heap always holds
			// clocks inside any lock-handoff charge window, so a CPU
			// requeued with a stale (too-small) heap key is dispatched
			// ahead of them and trips the dispatch-order audit.
			for i := 0; i < 2000; i++ {
				ops = append(ops, trace.Op{Kind: trace.Pad, Gap: 13})
			}
		}
		tr.CPUs[cpu] = trace.StreamOf(ops...)
	}
	m, err := NewMachine(CCNUMA(), config.DefaultCluster(), config.Default(),
		config.DefaultThresholds(), tr.Footprint, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableAudit()
	if err := m.Execute(tr); err != nil {
		t.Fatal(err)
	}
	if got := m.AuditViolations(); len(got) != 0 {
		t.Errorf("dispatch-order violations under lock contention: %v", got)
	}
	if got := m.fabric.Violations(); len(got) != 0 {
		t.Errorf("fabric violations under lock contention: %v", got)
	}
}

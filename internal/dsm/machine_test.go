package dsm

import (
	"testing"

	"repro/internal/config"
	"repro/internal/memory"
	"repro/internal/trace"
)

// mk builds a machine over a small footprint for direct tests.
func mk(t *testing.T, spec Spec) *Machine {
	t.Helper()
	m, err := NewMachine(spec, config.DefaultCluster(), config.Default(),
		config.DefaultThresholds(), 1<<20, "test")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// run executes a hand-built trace on a fresh machine of the given spec.
func run(t *testing.T, spec Spec, tr *trace.Trace) *Machine {
	t.Helper()
	m, err := NewMachine(spec, config.DefaultCluster(), config.Default(),
		config.DefaultThresholds(), tr.Footprint, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(tr); err != nil {
		t.Fatal(err)
	}
	return m
}

// tinyTrace builds a 32-CPU trace where only the listed CPUs have ops.
func tinyTrace(footprint uint64, cpuOps map[int][]trace.Op) *trace.Trace {
	tr := &trace.Trace{Name: "hand", CPUs: make([]trace.Stream, 32), Footprint: footprint}
	for cpu, ops := range cpuOps {
		tr.CPUs[cpu] = trace.StreamOf(ops...)
	}
	return tr
}

func rd(b uint32) trace.Op { return trace.Op{Kind: trace.Read, Arg: b} }
func wr(b uint32) trace.Op { return trace.Op{Kind: trace.Write, Arg: b} }
func gap(b uint32, g uint32) trace.Op {
	return trace.Op{Kind: trace.Read, Arg: b, Gap: g}
}

func TestConstructionAllSpecs(t *testing.T) {
	specs := []Spec{
		PerfectCCNUMA(), CCNUMA(), Rep(), Mig(), MigRep(),
		RNUMA(), RNUMAInf(), RNUMAHalf(), RNUMAHalfMigRep(256),
	}
	for _, s := range specs {
		m := mk(t, s)
		if s.HasBlockCache() && m.bc == nil {
			t.Errorf("%s: missing block cache", s.Name)
		}
		if !s.HasBlockCache() && m.bc != nil {
			t.Errorf("%s: unexpected block cache", s.Name)
		}
		if s.RNUMA && m.pc == nil {
			t.Errorf("%s: missing page cache", s.Name)
		}
		if err := m.Verify(); err != nil {
			t.Errorf("%s: fresh machine fails verification: %v", s.Name, err)
		}
	}
}

func TestDeriveFixedReconstructsTable3(t *testing.T) {
	m := mk(t, CCNUMA())
	tm := config.Default()
	// An uncontended local access must cost exactly the Table 3 local
	// miss latency.
	if got := m.localAccess(0, 0); got != tm.LocalMiss {
		t.Errorf("local access = %d, want %d", got, tm.LocalMiss)
	}
	// An uncontended remote round trip must cost exactly the Table 3
	// remote miss latency.
	m2 := mk(t, CCNUMA())
	if got := m2.roundTrip(0, 1, 0, 0, msgHeaderBytes, msgBlockBytes); got != tm.RemoteMiss {
		t.Errorf("round trip = %d, want %d", got, tm.RemoteMiss)
	}
}

func TestLocalFirstTouchAccessCost(t *testing.T) {
	tr := tinyTrace(1<<16, map[int][]trace.Op{0: {rd(0)}})
	m := run(t, CCNUMA(), tr)
	// First touch homes the page locally: one local miss, 104 cycles.
	if got := m.Stats().ExecCycles; got != config.Default().LocalMiss {
		t.Errorf("exec = %d, want %d", got, config.Default().LocalMiss)
	}
	if m.Stats().Nodes[0].LocalMisses[0] != 1 { // stats.Cold == 0
		t.Error("cold local miss not counted")
	}
}

func TestL1HitIsFree(t *testing.T) {
	tr := tinyTrace(1<<16, map[int][]trace.Op{0: {rd(0), rd(0), rd(0)}})
	m := run(t, CCNUMA(), tr)
	if got := m.Stats().ExecCycles; got != config.Default().LocalMiss {
		t.Errorf("exec = %d, want one miss worth (%d)", got, config.Default().LocalMiss)
	}
}

func TestRemoteReadTiming(t *testing.T) {
	tm := config.Default()
	// CPU 0 (node 0) writes the block, homing the page at node 0; CPU 4
	// (node 1) then reads it: a soft mapping fault plus one remote miss
	// served from the home (whose own caches hold it dirty — a 2-hop
	// fetch).
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {wr(0)},
		4: {gap(0, 1000)}, // gap orders the read after the write
	})
	m := run(t, CCNUMA(), tr)
	want := int64(1000) + tm.SoftTrap + 2*tm.NetworkLatency + tm.RemoteMiss
	if got := m.Stats().ExecCycles; got != want {
		t.Errorf("exec = %d, want %d", got, want)
	}
	n1 := m.Stats().Nodes[1]
	if n1.PageFaults != 1 {
		t.Errorf("page faults = %d, want 1", n1.PageFaults)
	}
	if n1.RemoteMisses[0] != 1 {
		t.Errorf("remote cold misses = %d, want 1", n1.RemoteMisses[0])
	}
}

func TestThreeHopDirtyFetch(t *testing.T) {
	tm := config.Default()
	// CPU 0 homes the page; CPU 4 (node 1) writes the block (taking
	// ownership); CPU 8 (node 2) reads it: 3-hop through the home.
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {rd(0)},
		4: {trace.Op{Kind: trace.Write, Arg: 0, Gap: 10000}},
		8: {trace.Op{Kind: trace.Read, Arg: 0, Gap: 30000}},
	})
	m := run(t, CCNUMA(), tr)
	want := int64(30000) + tm.SoftTrap + 2*tm.NetworkLatency +
		tm.RemoteMiss + tm.DirtyRemoteExtra
	if got := m.Stats().ExecCycles; got != want {
		t.Errorf("exec = %d, want %d", got, want)
	}
	// After the read, node 1's copy must be downgraded: the directory
	// shows a clean shared block.
	if err := m.Verify(); err != nil {
		t.Error(err)
	}
}

func TestBusContentionSerializes(t *testing.T) {
	tm := config.Default()
	// Two CPUs on the same node miss simultaneously to different local
	// blocks: the second is delayed by the bus occupancy.
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {rd(0)},
		1: {rd(1000)}, // different block, different page
	})
	m := run(t, CCNUMA(), tr)
	want := tm.LocalMiss + tm.BusOccupancy
	if got := m.Stats().ExecCycles; got != want {
		t.Errorf("exec = %d, want %d (bus-delayed second miss)", got, want)
	}
}

func TestPerfectAbsorbsCapacityMisses(t *testing.T) {
	// A node-1 CPU streams a remote region larger than its L1, twice.
	// With an infinite block cache the second sweep hits the cluster
	// cache; with no block cache (R-NUMA before relocation) it goes
	// remote again.
	blocks := (config.L1Bytes / config.BlockBytes) * 2
	var ops []trace.Op
	for sweep := 0; sweep < 2; sweep++ {
		for b := 0; b < blocks; b++ {
			ops = append(ops, rd(uint32(b)))
		}
	}
	tr := tinyTrace(uint64(blocks*config.BlockBytes), map[int][]trace.Op{
		0: {wr(0)}, // home everything at node 0 (first touch is page-wise below)
		4: append([]trace.Op{{Kind: trace.Pad, Gap: 1 << 20}}, ops...),
	})
	// Home all pages at node 0 first.
	var home []trace.Op
	for b := 0; b < blocks; b += config.BlocksPerPage {
		home = append(home, wr(uint32(b)))
	}
	tr.CPUs[0] = trace.StreamOf(home...)

	perfect := run(t, PerfectCCNUMA(), tr)
	p1 := perfect.Stats().Nodes[1]
	if p1.RemoteMisses[2] != 0 { // stats.CapacityConflict == 2
		t.Errorf("perfect CC-NUMA saw %d capacity misses", p1.RemoteMisses[2])
	}
	if p1.BlockCacheHits == 0 {
		t.Error("perfect CC-NUMA block cache never hit")
	}

	rn := run(t, RNUMAInf(), tr)
	r1 := rn.Stats().Nodes[1]
	if r1.RemoteMisses[2] == 0 {
		t.Error("no-block-cache system shows no capacity refetches")
	}
}

func TestUpgradeCost(t *testing.T) {
	tm := config.Default()
	// Node 1 reads a remote block (shared), then writes it: the write
	// is an upgrade through the home, costing a round trip plus the
	// invalidation ack wave.
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {rd(0)},
		4: {gap(0, 10000), wr(0)},
	})
	m := run(t, CCNUMA(), tr)
	n1 := m.Stats().Nodes[1]
	if n1.Upgrades != 1 {
		t.Errorf("upgrades = %d, want 1", n1.Upgrades)
	}
	base := int64(10000) + tm.SoftTrap + 2*tm.NetworkLatency + tm.RemoteMiss
	want := base + tm.RemoteMiss + tm.NetworkLatency
	if got := m.Stats().ExecCycles; got != want {
		t.Errorf("exec = %d, want %d", got, want)
	}
	// Node 0's copy must be gone.
	if m.nodeHolds(0, 0) {
		t.Error("upgrade did not invalidate the home's cached copy")
	}
	if err := m.Verify(); err != nil {
		t.Error(err)
	}
}

func TestSiblingSharingIsLocal(t *testing.T) {
	// Two CPUs of the same node read the same remote block: the second
	// fill is served on-node.
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {wr(0)},
		4: {gap(0, 10000)},
		5: {gap(0, 50000)},
	})
	m := run(t, CCNUMA(), tr)
	n1 := m.Stats().Nodes[1]
	if total := n1.RemoteMisses[0] + n1.RemoteMisses[1] + n1.RemoteMisses[2]; total != 1 {
		t.Errorf("remote misses = %d, want 1 (second fill is local)", total)
	}
	if local := n1.LocalMisses[0] + n1.LocalMisses[1] + n1.LocalMisses[2]; local != 1 {
		t.Errorf("local misses = %d, want 1", local)
	}
}

func TestCoherenceClassification(t *testing.T) {
	// Node 1 reads, node 2 writes (invalidating node 1), node 1 reads
	// again: the refetch classifies as a coherence miss, not capacity.
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {rd(0)},
		4: {gap(0, 10000), gap(0, 90000)},
		8: {trace.Op{Kind: trace.Write, Arg: 0, Gap: 50000}},
	})
	m := run(t, CCNUMA(), tr)
	n1 := m.Stats().Nodes[1]
	if n1.RemoteMisses[1] != 1 { // stats.Coherence == 1
		t.Errorf("coherence misses = %d, want 1 (got cold=%d capconf=%d)",
			n1.RemoteMisses[1], n1.RemoteMisses[0], n1.RemoteMisses[2])
	}
}

func TestCapacityClassification(t *testing.T) {
	// Node 1 streams past its L1 and block cache, then refetches: the
	// misses classify as capacity/conflict.
	bcBlocks := config.BlockCacheBytes / config.BlockBytes
	var ops []trace.Op
	for b := 0; b <= 2*bcBlocks; b++ {
		ops = append(ops, rd(uint32(b)))
	}
	ops = append(ops, rd(0)) // refetch after eviction
	var home []trace.Op
	for b := 0; b <= 2*bcBlocks; b += config.BlocksPerPage {
		home = append(home, wr(uint32(b)))
	}
	tr := tinyTrace(uint64((2*bcBlocks+config.BlocksPerPage)*config.BlockBytes),
		map[int][]trace.Op{
			0: home,
			4: append([]trace.Op{{Kind: trace.Pad, Gap: 1 << 21}}, ops...),
		})
	m := run(t, CCNUMA(), tr)
	n1 := m.Stats().Nodes[1]
	if n1.RemoteMisses[2] == 0 {
		t.Error("no capacity/conflict misses recorded after eviction refetch")
	}
}

func TestVerifyAfterMixedWorkload(t *testing.T) {
	// A write-shared interleaving across nodes must leave the machine
	// consistent for every system.
	var cpuOps = map[int][]trace.Op{}
	for cpu := 0; cpu < 32; cpu += 3 {
		var ops []trace.Op
		for i := 0; i < 200; i++ {
			b := uint32((cpu*37 + i*11) % 512)
			if i%4 == 0 {
				ops = append(ops, wr(b))
			} else {
				ops = append(ops, rd(b))
			}
		}
		cpuOps[cpu] = ops
	}
	for _, spec := range []Spec{PerfectCCNUMA(), CCNUMA(), MigRep(), RNUMA()} {
		m := run(t, spec, tinyTrace(512*config.BlockBytes, cpuOps))
		if err := m.Verify(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

func TestTraceCPUMismatch(t *testing.T) {
	m := mk(t, CCNUMA())
	bad := &trace.Trace{Name: "bad", CPUs: make([]trace.Stream, 4), Footprint: 4096}
	if err := m.Execute(bad); err == nil {
		t.Error("trace with wrong cpu count accepted")
	}
}

var _ = memory.Addr(0)

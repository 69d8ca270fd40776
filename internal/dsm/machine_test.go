package dsm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/directory"
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
		hasBC := s.InfiniteBlockCache || s.BlockCacheBytes > 0
		if hasBC && m.bc == nil {
			t.Errorf("%s: missing block cache", s.Name)
		}
		if !hasBC && m.bc != nil {
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

// TestDirtyL1EvictionFoldsAwayOwnership pins how a dirty L1 eviction
// into the node's block cache is accounted. The block cache keeps the
// dirty block and nothing is written back, but evictFromL1 re-adds the
// node as a sharer, which downgrades the directory from Modified to
// Shared. A later read by another node is then charged as a clean
// 2-hop miss from home memory, not as the 3-hop forward of
// TestThreeHopDirtyFetch, and the run ends with a Modified block-cache
// copy the directory calls Shared. Verify walks only the L1s, so the
// audit does not see it. That is the current accounting, not a claim
// that it is right.
func TestDirtyL1EvictionFoldsAwayOwnership(t *testing.T) {
	tm := config.Default()
	// CPU 0 homes page 0 at node 0. CPU 4 (node 1) writes block 0, then
	// reads block 256, which maps to the same L1 set and evicts block 0
	// dirty into node 1's block cache. CPU 8 (node 2) waits on a read of
	// its own page, then reads block 0.
	hand := func(cpu8 ...trace.Op) *trace.Trace {
		return tinyTrace(1<<16, map[int][]trace.Op{
			0: {rd(0)},
			4: {{Kind: trace.Write, Arg: 0, Gap: 10000}, rd(256)},
			8: append([]trace.Op{gap(512, 100000)}, cpu8...),
		})
	}
	for _, spec := range []Spec{CCNUMA(), PerfectCCNUMA()} {
		before := run(t, spec, hand())
		if e := before.dir.Entry(0); e.State != directory.SharedState || e.Sharers != 1<<1 ||
			before.bc[1].Probe(0) != cache.Modified {
			t.Errorf("%s: after the eviction, directory %v %b and node 1's block cache %v; want Shared {1} over a Modified copy",
				spec.Name, e.State, e.Sharers, before.bc[1].Probe(0))
		}

		m := run(t, spec, hand(rd(0)))
		// Node 2's read: a soft mapping fault, then a clean miss. The
		// forward would add DirtyRemoteExtra cycles and two headers.
		if got, want := m.Stats().ExecCycles-before.Stats().ExecCycles,
			tm.SoftTrap+2*tm.NetworkLatency+tm.RemoteMiss; got != want {
			t.Errorf("%s: node 2's read cost %d cycles, want %d (a clean 2-hop miss)", spec.Name, got, want)
		}
		if got, want := m.Stats().Nodes[2].TrafficBytes, int64(3*msgHeaderBytes+msgBlockBytes); got != want {
			t.Errorf("%s: node 2 sent %d bytes, want %d (fault request + clean 2-hop miss)", spec.Name, got, want)
		}
		if e := m.dir.Entry(0); e.State != directory.SharedState || e.Sharers != 1<<1|1<<2 ||
			m.bc[1].Probe(0) != cache.Modified || m.bc[2].Probe(0) != cache.Shared {
			t.Errorf("%s: at the end, directory %v %b, block caches %v and %v; want Shared {1,2} over Modified and Shared",
				spec.Name, e.State, e.Sharers, m.bc[1].Probe(0), m.bc[2].Probe(0))
		}
		if err := m.Verify(); err != nil {
			t.Errorf("%s: Verify now sees block-cache state: %v", spec.Name, err)
		}
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

// TestVerifyReportsCacheDirectoryDisagreement plants L1 copies the
// directory does not cover and checks Verify reports the one at the
// lowest CPU, then the lowest block, whatever line holds it.
func TestVerifyReportsCacheDirectoryDisagreement(t *testing.T) {
	cases := []struct {
		name  string
		plant func(m *Machine)
		want  string
	}{
		{
			name: "cached block missing from sharers",
			plant: func(m *Machine) {
				m.dir.AddSharer(7, 0) // node 1 (CPUs 4-7) is not a sharer
				m.l1[9].Insert(7, cache.Shared)
				// CPU 5: block 513 sits on line 1, block 300 on line 44.
				m.l1[5].Insert(513, cache.Shared)
				m.l1[5].Insert(300, cache.Shared)
			},
			want: "dsm: cpu 5 caches block 300 but node 1 not in sharers",
		},
		{
			name: "dirty copy the directory records as clean",
			plant: func(m *Machine) {
				m.dir.AddSharer(40, 2) // node 2 (CPUs 8-11) shares it clean
				m.l1[10].Insert(40, cache.Modified)
				m.dir.AddSharer(41, 2)
				m.l1[11].Insert(41, cache.Modified)
			},
			want: "dsm: cpu 10 holds block 40 dirty but directory says shared owner -1",
		},
		{
			name: "dirty copy of another node's block",
			plant: func(m *Machine) {
				// node 3 owns block 41; node 2 stays in the
				// conservative sharer set but holds it dirty
				m.dir.Set(41, directory.Entry{State: directory.ModifiedState, Owner: 3, Sharers: 1<<2 | 1<<3})
				m.l1[11].Insert(41, cache.Modified)
			},
			want: "dsm: cpu 11 holds block 41 dirty but directory says modified owner 3",
		},
	}
	for _, c := range cases {
		m := mk(t, CCNUMA())
		c.plant(m)
		if err := m.Verify(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Verify = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestVerifyReportsPageRecordViolations builds a violation of each
// page-record invariant by hand and checks Verify names it. Page 0 is
// clean and homed at node 0 in every case; page 3 breaks the row.
func TestVerifyReportsPageRecordViolations(t *testing.T) {
	cases := []struct {
		want  string
		plant func(m *Machine, pg *page)
	}{
		{"a page with replicas is replicated", func(m *Machine, pg *page) {
			pg.mapped, pg.replicas = 1<<0|1<<1, 1<<1
		}},
		{"replicas are a subset of mapped", func(m *Machine, pg *page) {
			pg.replicated, pg.mapped, pg.replicas = true, 1<<0, 1<<1
		}},
		{"the home holds no replica", func(m *Machine, pg *page) {
			pg.replicated, pg.mapped, pg.replicas = true, 1<<0|1<<1, 1<<0
		}},
		{"the home holds no S-COMA frame", func(m *Machine, pg *page) {
			pg.mapped = 1 << 0
			m.pc[0].Allocate(3)
		}},
	}
	if len(cases) != len(pageInvariants) {
		t.Fatalf("%d cases for %d invariants", len(cases), len(pageInvariants))
	}
	for _, c := range cases {
		m := mk(t, RNUMA())
		m.pages[0].home, m.pages[0].mapped = 0, 1<<0
		m.pages[3].home = 0
		if err := m.Verify(); err != nil {
			t.Fatalf("clean machine: %v", err)
		}
		c.plant(m, &m.pages[3])
		want := fmt.Sprintf("dsm: page 3 breaks %q", c.want)
		if err := m.Verify(); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Verify = %v, want %s", err, want)
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

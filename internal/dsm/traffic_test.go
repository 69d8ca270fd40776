package dsm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestTrafficAccountedOnRemoteFill(t *testing.T) {
	tr := tinyTrace(1<<16, map[int][]trace.Op{
		0: {wr(0)},
		4: {gap(0, 10000)},
	})
	m := run(t, CCNUMA(), tr)
	// The remote fill moves at least a request header plus a data
	// block; the page fault adds two headers.
	min := int64(msgHeaderBytes + msgBlockBytes)
	if got := m.Stats().Nodes[1].TrafficBytes; got < min {
		t.Errorf("traffic = %d, want >= %d", got, min)
	}
	// The home node generated no traffic of its own.
	if got := m.Stats().Nodes[0].TrafficBytes; got != 0 {
		t.Errorf("home traffic = %d, want 0", got)
	}
}

func TestLocalWorkloadGeneratesNoTraffic(t *testing.T) {
	tr, err := apps.GenerateSynthetic(apps.SynPrivate, apps.SyntheticParams{CPUs: 32, KBPerNode: 64, Iters: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := RunWithOptions(tr, CCNUMA(), config.DefaultCluster(), config.Default(), config.DefaultThresholds(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.TotalTrafficBytes(); got != 0 {
		t.Errorf("private workload produced %d bytes of traffic", got)
	}
	if got := sim.TotalRemoteMisses(); got != 0 {
		t.Errorf("private workload produced %d remote misses", got)
	}
}

func TestWritebackTrafficOnEviction(t *testing.T) {
	// Node 1 writes a remote region larger than its caches: dirty
	// victims must flow home as data traffic.
	bcBlocks := config.BlockCacheBytes / config.BlockBytes
	var home, ops []trace.Op
	for b := 0; b <= 2*bcBlocks; b += config.BlocksPerPage {
		home = append(home, wr(uint32(b)))
	}
	for b := 0; b <= 2*bcBlocks; b++ {
		ops = append(ops, wr(uint32(b)))
	}
	tr := tinyTrace(uint64((2*bcBlocks+config.BlocksPerPage)*config.BlockBytes),
		map[int][]trace.Op{
			0: home,
			4: append([]trace.Op{{Kind: trace.Pad, Gap: 1 << 21}}, ops...),
		})
	m := run(t, CCNUMA(), tr)
	// Writeback traffic from node 1 beyond the fills themselves:
	// fills cost header+block each; evictions add one block each.
	fills := int64(2*bcBlocks + 1)
	fillBytes := fills * (msgHeaderBytes + msgBlockBytes)
	got := m.Stats().Nodes[1].TrafficBytes
	if got <= fillBytes {
		t.Errorf("traffic %d does not include writebacks (fills alone = %d)", got, fillBytes)
	}
}

func TestRNUMATrafficLowerOnReuse(t *testing.T) {
	tr, err := apps.GenerateSynthetic(apps.SynStream, apps.SyntheticParams{CPUs: 32, KBPerNode: 256, Iters: 8})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := RunWithOptions(tr, CCNUMA(), config.DefaultCluster(), config.Default(), config.DefaultThresholds(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := RunWithOptions(tr, RNUMA(), config.DefaultCluster(), config.Default(), config.DefaultThresholds(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rn.TotalTrafficBytes() >= cc.TotalTrafficBytes() {
		t.Errorf("R-NUMA traffic %d not below CC-NUMA %d on streaming reuse",
			rn.TotalTrafficBytes(), cc.TotalTrafficBytes())
	}
}

func TestStallAndSyncCyclesPopulated(t *testing.T) {
	tr, err := apps.GenerateSynthetic(apps.SynWriteShared, apps.SyntheticParams{CPUs: 32, KBPerNode: 64, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := RunWithOptions(tr, CCNUMA(), config.DefaultCluster(), config.Default(), config.DefaultThresholds(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var stall, sync int64
	for i := range sim.Nodes {
		stall += sim.Nodes[i].StallCycles
		sync += sim.Nodes[i].SyncCycles
	}
	if stall == 0 {
		t.Error("no stall cycles recorded")
	}
	if sync == 0 {
		t.Error("no synchronization cycles recorded")
	}
	if stall+sync >= sim.ExecCycles*32 {
		t.Errorf("stall %d + sync %d exceed total cpu time %d", stall, sync, sim.ExecCycles*32)
	}
}

func TestPageOpCyclesChargedForRelocation(t *testing.T) {
	sim := runSynthetic(t, RNUMA(), apps.SynStream, 256, 6)
	var pageOp int64
	for i := range sim.Nodes {
		pageOp += sim.Nodes[i].PageOpCycles
	}
	relocs := sim.PageOpsByKind(stats.Relocation)
	if relocs == 0 {
		t.Skip("no relocations at this size")
	}
	// Each relocation costs at least the minimum page operation.
	min := relocs * config.Default().PageOpCost(0)
	if pageOp < min {
		t.Errorf("page-op cycles %d below %d relocations x min cost", pageOp, relocs)
	}
}

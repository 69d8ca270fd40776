package dsm

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestTablesReuseMatchesFreshTables carries one table set through runs
// whose footprint, fabric, cluster and system change in both
// directions: the infinite block caches shrink and grow, the finite ones
// change geometry, R-NUMA's counters and page caches come and go, and
// the node and CPU counts fall below what the set holds and rise again.
// Every run on the reused set must return the statistics the same run
// returns on fresh tables. Steps marked pc must run on the page caches,
// frames included, an earlier R-NUMA or S-COMA step left on the set;
// steps marked topo on a fabric graph an earlier step built.
func TestTablesReuseMatchesFreshTables(t *testing.T) {
	type key struct {
		app  string
		cpus int
	}
	traces := map[key]*trace.Trace{}
	// pages bounds the page index of every trace generated so far.
	pages := 0
	gen := func(name string, cpus int) *trace.Trace {
		k := key{name, cpus}
		if tr := traces[k]; tr != nil {
			return tr
		}
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := app.Generate(apps.Params{CPUs: cpus, Scale: 8})
		if err != nil {
			t.Fatal(err)
		}
		traces[k] = tr
		pages = max(pages, int(tr.Footprint>>config.PageShift)+1)
		return tr
	}
	ring := config.DefaultCluster()
	ring.Net = config.Network{Topology: "ring"}
	small := config.Cluster{Nodes: 4, CPUsPerNode: 4}
	bigBC := CCNUMA()
	bigBC.Name, bigBC.BlockCacheBytes = "CC-NUMA-2x", 2*bigBC.BlockCacheBytes
	tiny := RNUMAHalf()
	tiny.Name, tiny.PageCacheBytes = "R-NUMA-8p", 8*config.PageBytes
	base := Spec{} // the zero spec stands for RunBaseline
	steps := []struct {
		app      string
		spec     Spec
		cl       config.Cluster
		pc, topo bool
	}{
		{app: "radix", spec: base, cl: config.DefaultCluster()},
		{app: "migratory", spec: CCNUMA(), cl: config.DefaultCluster(), topo: true},
		{app: "lu", spec: MigRep(), cl: ring},
		{app: "radix", spec: RNUMAHalf(), cl: config.DefaultCluster(), topo: true},
		{app: "migratory", spec: RNUMAHalf(), cl: ring, pc: true, topo: true},
		// Page caches of another size: the set's must not serve.
		{app: "radix", spec: tiny, cl: config.DefaultCluster(), topo: true},
		{app: "migratory", spec: SCOMA(), cl: config.DefaultCluster(), topo: true},
		{app: "radix", spec: SCOMA(), cl: ring, pc: true, topo: true},
		{app: "lu", spec: bigBC, cl: config.DefaultCluster(), topo: true},
		{app: "radix", spec: CCNUMA(), cl: ring, topo: true},
		{app: "migratory", spec: base, cl: config.DefaultCluster(), topo: true},
		// A smaller cluster after a larger one: fewer L1s, block caches,
		// page caches and per-node rows than the set holds, then back
		// again.
		{app: "radix", spec: base, cl: small},
		{app: "lu", spec: SCOMA(), cl: small, pc: true, topo: true},
		{app: "migratory", spec: CCNUMA(), cl: small, topo: true},
		{app: "radix", spec: base, cl: config.DefaultCluster(), topo: true},
		{app: "lu", spec: SCOMA(), cl: config.DefaultCluster(), pc: true, topo: true},
		{app: "migratory", spec: CCNUMA(), cl: config.DefaultCluster(), topo: true},
	}
	tb := new(Tables)
	for i, s := range steps {
		tr, name := gen(s.app, s.cl.TotalCPUs()), s.spec.Name
		if s.spec == base {
			name = PerfectCCNUMA().Name + " baseline"
		}
		do := func(o RunOptions) *stats.Sim {
			t.Helper()
			o.Audit = true
			var sim *stats.Sim
			var err error
			if s.spec == base {
				sim, err = RunBaseline(tr, s.cl, o)
			} else {
				sim, err = RunWithOptions(tr, s.spec, s.cl, config.Default(), config.DefaultThresholds(), o)
			}
			if err != nil {
				t.Fatalf("step %d (%s on %s): %v", i, s.app, name, err)
			}
			return sim
		}
		pcs, topos, frames := slices.Clone(tb.pc), len(tb.topos), 0
		for _, c := range pcs {
			for p := range pages {
				if c.Entry(memory.Page(p)) != nil {
					frames++
				}
			}
		}
		fresh, reused := do(RunOptions{}), do(RunOptions{Tables: tb})
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("step %d (%s on %s): statistics on the reused tables differ from fresh ones", i, s.app, name)
		}
		if nodes := s.cl.Nodes; s.pc && (len(pcs) < nodes || !slices.Equal(pcs[:nodes], tb.pc[:nodes]) || frames == 0) {
			t.Errorf("step %d (%s on %s): ran on new page caches, not the set's", i, s.app, name)
		}
		if s.topo != (len(tb.topos) == topos) {
			t.Errorf("step %d (%s on %s): the set's fabric graphs went from %d to %d", i, s.app, name, topos, len(tb.topos))
		}
	}
}

// TestTablesBytesPerBlock binds radix at scale 2, the benchmark's
// remote-ring-s2 footprint, on the paper's 8x4 cluster and holds the
// set's per-block tables, the directory and the per-node rows, to 17
// bytes a block: a 9-byte directory entry and one byte per node.
func TestTablesBytesPerBlock(t *testing.T) {
	app, err := apps.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	cl := config.DefaultCluster()
	tr, err := app.Generate(apps.Params{CPUs: cl.TotalCPUs(), Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	tb := new(Tables)
	m, err := newMachine(CCNUMA(), cl, config.Default(), config.DefaultThresholds(), tr.Footprint, tr.Name, tb)
	if err != nil {
		t.Fatal(err)
	}
	bytes := sliceBytes(reflect.ValueOf(tb.dir)) + sliceBytes(reflect.ValueOf(tb.nodeBlock))
	if perBlock := float64(bytes) / float64(m.numBlocks); perBlock > 9+float64(cl.Nodes) {
		t.Errorf("%d blocks take %d bytes of directory and per-node rows, %.2f a block; want at most %d",
			m.numBlocks, bytes, perBlock, 9+cl.Nodes)
	}
	if copyMask != config.MaxCPUsPerNode {
		t.Errorf("the L1-copy count holds %d, config.MaxCPUsPerNode is %d", copyMask, config.MaxCPUsPerNode)
	}
}

// sliceBytes sums the capacity in bytes of v, a slice of pointer-free
// elements or a struct of such slices and scalars.
func sliceBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Slice:
		return v.Cap() * int(v.Type().Elem().Size())
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += sliceBytes(v.Field(i))
		}
		return n
	}
	return 0
}

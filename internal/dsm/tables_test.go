package dsm

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestTablesReuseMatchesFreshTables carries one table set through runs
// whose footprint, fabric, cluster and system change in both
// directions: the infinite block caches shrink and grow, the finite ones
// change geometry, R-NUMA's counters come and go, and the node and CPU
// counts fall below what the set holds and rise again. Every run on the reused set
// must return the statistics the same run returns on fresh tables.
func TestTablesReuseMatchesFreshTables(t *testing.T) {
	type key struct {
		app  string
		cpus int
	}
	traces := map[key]*trace.Trace{}
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
		return tr
	}
	ring := config.DefaultCluster()
	ring.Net = config.Network{Topology: "ring"}
	small := config.Cluster{Nodes: 4, CPUsPerNode: 4}
	bigBC := CCNUMA()
	bigBC.Name, bigBC.BlockCacheBytes = "CC-NUMA-2x", 2*bigBC.BlockCacheBytes
	base := Spec{} // the zero spec stands for RunBaseline
	steps := []struct {
		app  string
		spec Spec
		cl   config.Cluster
	}{
		{"radix", base, config.DefaultCluster()},
		{"migratory", CCNUMA(), config.DefaultCluster()},
		{"lu", MigRep(), ring},
		{"radix", RNUMAHalf(), config.DefaultCluster()},
		{"migratory", SCOMA(), config.DefaultCluster()},
		{"lu", bigBC, config.DefaultCluster()},
		{"radix", CCNUMA(), ring},
		{"migratory", base, config.DefaultCluster()},
		// A smaller cluster after a larger one: fewer L1s, block caches
		// and per-node rows than the set holds, then back again.
		{"radix", base, small},
		{"lu", RNUMAHalf(), small},
		{"migratory", CCNUMA(), small},
		{"radix", base, config.DefaultCluster()},
		{"migratory", CCNUMA(), config.DefaultCluster()},
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
		fresh, reused := do(RunOptions{}), do(RunOptions{Tables: tb})
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("step %d (%s on %s): statistics on the reused tables differ from fresh ones", i, s.app, name)
		}
	}
}

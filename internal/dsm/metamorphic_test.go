package dsm

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/stats"
)

// TestMetamorphicRelations runs pairs of configurations that the
// protocol's own description says must behave identically, and
// requires the full statistics (System cleared) to be equal on every
// app at scale 8, audited. A relation catches a mechanism whose "off"
// state still perturbs the run: a cost charged for a decision not
// taken, or a counter reset that touches shared state. The control
// row pairs two systems that must differ somewhere, so the comparison
// is known to see a difference.
func TestMetamorphicRelations(t *testing.T) {
	// MigRep's counters reset every MigRepResetInterval references,
	// and no page is refetched 2^30 times, so neither threshold is
	// reached.
	const unreachable = 1 << 30
	def := config.DefaultThresholds()
	noMigRep, noReloc := def, def
	noMigRep.MigRepThreshold = unreachable
	noReloc.RNUMAThreshold = unreachable

	type setup struct {
		spec Spec
		th   config.Thresholds
	}
	relations := []struct {
		name string
		same bool // false: the pair must differ on some app
		pair func(footprint uint64) (a, b setup)
	}{
		{"MigRep with MigRepThreshold unreachable = CC-NUMA", true, func(uint64) (a, b setup) {
			return setup{MigRep(), noMigRep}, setup{CCNUMA(), def}
		}},
		{"Mig with MigRepThreshold unreachable = CC-NUMA", true, func(uint64) (a, b setup) {
			return setup{Mig(), noMigRep}, setup{CCNUMA(), def}
		}},
		{"Rep with MigRepThreshold unreachable = CC-NUMA", true, func(uint64) (a, b setup) {
			return setup{Rep(), noMigRep}, setup{CCNUMA(), def}
		}},
		{"R-NUMA-1/2+MigRep with no relocation delay and MigRepThreshold unreachable = R-NUMA-1/2", true, func(uint64) (a, b setup) {
			return setup{RNUMAHalfMigRep(0), noMigRep}, setup{RNUMAHalf(), def}
		}},
		{"R-NUMA = R-NUMA-Inf with RNUMAThreshold unreachable", true, func(uint64) (a, b setup) {
			return setup{RNUMA(), noReloc}, setup{RNUMAInf(), noReloc}
		}},
		{"R-NUMA with a page cache larger than the footprint = R-NUMA-Inf", true, func(fp uint64) (a, b setup) {
			big := RNUMA()
			big.PageCacheBytes = int(fp) + config.PageBytes
			return setup{big, def}, setup{RNUMAInf(), def}
		}},
		{"control: MigRep at default thresholds differs from CC-NUMA", false, func(uint64) (a, b setup) {
			return setup{MigRep(), def}, setup{CCNUMA(), def}
		}},
	}

	cl := config.DefaultCluster()
	differs := make([]int, len(relations))
	for _, app := range apps.All() {
		tr, err := app.Generate(apps.Params{CPUs: cl.TotalCPUs(), Scale: 8})
		if err != nil {
			t.Fatal(err)
		}
		run := func(c setup) *stats.Sim {
			t.Helper()
			s, err := RunWithOptions(tr, c.spec, cl, config.Default(), c.th, RunOptions{Audit: true})
			if err != nil {
				t.Fatal(err)
			}
			s.System = ""
			return s
		}
		for i, r := range relations {
			a, b := r.pair(tr.Footprint)
			sa, sb := run(a), run(b)
			if reflect.DeepEqual(sa, sb) {
				continue
			}
			differs[i]++
			if r.same {
				t.Errorf("%s: %s: exec %d vs %d cycles, traffic %d vs %d bytes",
					r.name, app.Name, sa.ExecCycles, sb.ExecCycles,
					sa.TotalTrafficBytes(), sb.TotalTrafficBytes())
			}
		}
	}
	for i, r := range relations {
		if !r.same && differs[i] == 0 {
			t.Errorf("%s: equal on every app", r.name)
		}
	}
}

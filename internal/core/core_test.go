// Package core_test checks, end to end, the library surface the
// examples drive: harness.RunByName for registered applications and
// systems, and dsm.RunWithOptions with dsm.RunBaseline for a caller's
// own trace. The directory holds tests only; the simulator itself lives
// in internal/dsm and the experiment runner in internal/harness.
package core_test

import (
	"io"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/harness"
	"repro/internal/stats"
)

// fig5 runs Figure 5 at scale 8 on the given apps and systems, with the
// audit on, as the examples do.
func fig5(apps, systems []string, traces *harness.TraceCache) (*harness.Result, error) {
	return harness.RunByName("fig5", harness.Options{
		Scale:   8,
		Apps:    apps,
		Systems: systems,
		Audit:   true,
		Traces:  traces,
		Out:     io.Discard,
	})
}

func TestTraceCaching(t *testing.T) {
	tc := harness.NewTraceCache()
	for i := 0; i < 2; i++ {
		if _, err := fig5([]string{"radix"}, []string{"ccnuma"}, tc); err != nil {
			t.Fatal(err)
		}
	}
	if s := tc.Stats(); s.Generated != 1 || s.Hits != 1 {
		t.Errorf("trace not cached across runs: %+v", s)
	}
	if n := tc.Len(); n != 1 {
		t.Errorf("cache holds %d traces, want 1", n)
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		systems []string
		want    []string
	}{
		{[]string{"ccnuma", "rnuma"}, []string{"CC-NUMA", "R-NUMA"}},
		{[]string{"rnuma", "ccnuma"}, []string{"R-NUMA", "CC-NUMA"}},
	} {
		res, err := fig5([]string{"radix"}, tc.systems, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Systems) != len(tc.want) {
			t.Fatalf("%v: got %d systems", tc.systems, len(res.Systems))
		}
		for i, label := range tc.want {
			if res.Systems[i] != label {
				t.Errorf("%v: results out of order: %v", tc.systems, res.Systems)
				break
			}
			if run := res.Runs["radix"][label]; run == nil || run.Norm <= 0 {
				t.Errorf("%v: %s has no normalized run", tc.systems, label)
			}
		}
	}
}

func TestUnknownSystemAndApp(t *testing.T) {
	if _, err := fig5([]string{"lu"}, []string{"warp-drive"}, nil); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := fig5([]string{"nosuch"}, []string{"ccnuma"}, nil); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestSystemsCoverSpecs(t *testing.T) {
	th := config.DefaultThresholds()
	for _, sys := range dsm.SystemNames() {
		info, err := dsm.Lookup(sys)
		if err != nil {
			t.Errorf("%s: %v", sys, err)
			continue
		}
		if err := info.New(th).Validate(); err != nil {
			t.Errorf("%s: %v", sys, err)
		}
	}
}

func TestApplicationsListed(t *testing.T) {
	names := apps.Names()
	if len(names) < 8 { // seven paper apps + synthetic
		t.Errorf("only %d applications", len(names))
	}
	for _, n := range names {
		if _, err := apps.ByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestSimulateTrace(t *testing.T) {
	tr, err := apps.GenerateSynthetic(apps.SynStream, apps.SyntheticParams{CPUs: 32, KBPerNode: 128, Iters: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl, ro := config.DefaultCluster(), dsm.RunOptions{Audit: true}
	base, err := dsm.RunBaseline(tr, cl, ro)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dsm.RunWithOptions(tr, dsm.RNUMA(), cl, config.Default(), config.DefaultThresholds(), ro)
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

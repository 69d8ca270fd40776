package dsm

import (
	"strings"
	"testing"

	"repro/internal/config"
)

func TestRegistryCoversPaperSystems(t *testing.T) {
	want := []string{
		"perfect", "ccnuma", "rep", "mig", "migrep",
		"rnuma", "rnuma-inf", "rnuma-half", "rnuma-half-migrep",
		"scoma", "migrep-contend",
	}
	got := SystemNames()
	if len(got) != len(want) {
		t.Fatalf("registered systems = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("system[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLookupResolvesSpecs(t *testing.T) {
	th := config.DefaultThresholds()
	for _, name := range SystemNames() {
		info, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spec := info.New(th)
		if spec.Name == "" {
			t.Errorf("%s: spec has no report label", name)
		}
		if _, err := NewMachine(spec, config.DefaultCluster(), config.Default(), th, 1<<20, "test"); err != nil {
			t.Errorf("%s: machine construction failed: %v", name, err)
		}
	}
	// Spec is a comparable value (no func, slice or map field), so two
	// constructions of one system compare equal and a Spec can key a
	// cache as it stands.
	for _, th := range []config.Thresholds{th, config.SlowThresholds()} {
		for _, info := range Systems() {
			if info.New(th) != info.New(th) {
				t.Errorf("%s: two constructions of the spec differ", info.Name)
			}
		}
	}
	// Lookups are case-insensitive, matching the old CLI behavior.
	if _, err := Lookup("MigRep"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
}

func TestLookupUnknownListsNames(t *testing.T) {
	_, err := Lookup("nosuch")
	if err == nil {
		t.Fatal("unknown system accepted")
	}
	for _, want := range []string{"nosuch", "ccnuma", "migrep-contend"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestRegisterRejectsDuplicatesAndIncomplete(t *testing.T) {
	mustPanic := func(name string, s SystemInfo) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("duplicate", SystemInfo{Name: "ccnuma", New: func(config.Thresholds) Spec { return CCNUMA() }})
	mustPanic("no constructor", SystemInfo{Name: "hollow"})
	mustPanic("no name", SystemInfo{New: func(config.Thresholds) Spec { return CCNUMA() }})
}

// TestRNUMAHalfMigRepDelayTracksThresholds pins the registry
// constructor's Section 6.4 rule: the relocation delay scales with the
// R-NUMA switching threshold.
func TestRNUMAHalfMigRepDelayTracksThresholds(t *testing.T) {
	info, err := Lookup("rnuma-half-migrep")
	if err != nil {
		t.Fatal(err)
	}
	fast := info.New(config.DefaultThresholds())
	if want := 8 * config.DefaultThresholds().RNUMAThreshold; fast.RelocDelayMisses != want {
		t.Errorf("fast delay = %d, want %d", fast.RelocDelayMisses, want)
	}
	slow := info.New(config.SlowThresholds())
	if fast.RelocDelayMisses >= slow.RelocDelayMisses {
		t.Errorf("slow thresholds did not raise the delay: %d vs %d",
			fast.RelocDelayMisses, slow.RelocDelayMisses)
	}
}

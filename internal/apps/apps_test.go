package apps

import (
	"testing"

	"repro/internal/trace"
)

func TestRegistryHasPaperApps(t *testing.T) {
	paper := Paper()
	if len(paper) != 7 {
		t.Fatalf("paper app count = %d, want 7", len(paper))
	}
	want := []string{"barnes", "cholesky", "fmm", "lu", "ocean", "radix", "raytrace"}
	for i, app := range paper {
		if app.Name != want[i] {
			t.Errorf("paper[%d] = %s, want %s", i, app.Name, want[i])
		}
		if app.Description == "" || app.Input == "" {
			t.Errorf("%s: missing metadata", app.Name)
		}
	}
}

// TestApplicationsListed: Names lists the seven paper applications plus
// the synthetic ones, and every listed name resolves.
func TestApplicationsListed(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Errorf("only %d applications", len(names))
	}
	for _, n := range names {
		if _, err := ByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown app resolved")
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("All() not sorted at %d: %s >= %s", i, all[i-1].Name, all[i].Name)
		}
	}
}

// generateAll builds every paper app at test scale.
func generateAll(t *testing.T, scale int) map[string]*trace.Trace {
	t.Helper()
	out := map[string]*trace.Trace{}
	for _, app := range Paper() {
		tr, err := app.Generate(Params{CPUs: 32, Scale: scale})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		out[app.Name] = tr
	}
	return out
}

func TestAllTracesValidate(t *testing.T) {
	for name, tr := range generateAll(t, 8) {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if tr.NumCPUs() != 32 {
			t.Errorf("%s: %d cpus", name, tr.NumCPUs())
		}
		if tr.Footprint == 0 {
			t.Errorf("%s: zero footprint", name)
		}
		if tr.Ops() == 0 {
			t.Errorf("%s: empty trace", name)
		}
	}
}

func TestAllTracesHavePhaseMarker(t *testing.T) {
	for name, tr := range generateAll(t, 8) {
		for cpu, ops := range tr.CPUs {
			found := false
			for _, k := range ops.Kinds {
				if k == trace.Phase {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: cpu %d has no phase marker", name, cpu)
			}
		}
	}
}

func TestTracesAreDeterministic(t *testing.T) {
	for _, app := range Paper() {
		a, err := app.Generate(Params{CPUs: 32, Scale: 8})
		if err != nil {
			t.Fatal(err)
		}
		b, err := app.Generate(Params{CPUs: 32, Scale: 8})
		if err != nil {
			t.Fatal(err)
		}
		if a.Ops() != b.Ops() {
			t.Errorf("%s: op counts differ: %d vs %d", app.Name, a.Ops(), b.Ops())
			continue
		}
		for cpu := range a.CPUs {
			ao, bo := a.CPUs[cpu].Ops(), b.CPUs[cpu].Ops()
			for i := range ao {
				if ao[i] != bo[i] {
					t.Errorf("%s: cpu %d op %d differs", app.Name, cpu, i)
					break
				}
			}
		}
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for name, tr := range generateAll(t, 8) {
		blocks := tr.Footprint / 64
		for cpu, s := range tr.CPUs {
			c := s.Cursor()
			for i := 0; ; i++ {
				op, ok := c.Next()
				if !ok {
					break
				}
				if op.Kind != trace.Read && op.Kind != trace.Write {
					continue
				}
				if uint64(op.Arg) >= blocks {
					t.Fatalf("%s: cpu %d op %d touches block %d beyond footprint (%d blocks)",
						name, cpu, i, op.Arg, blocks)
				}
			}
		}
	}
}

func TestMostCPUsDoWork(t *testing.T) {
	// The decompositions must spread memory operations over the
	// processors. At reduced test scales some block decompositions
	// legitimately leave processors idle (e.g. a 6x6-block LU cannot
	// occupy 32 owners), so require at least half the machine working;
	// full-scale inputs cover all 32.
	for name, tr := range generateAll(t, 4) {
		active := 0
		for _, ops := range tr.CPUs {
			for _, k := range ops.Kinds {
				if k == trace.Read || k == trace.Write {
					active++
					break
				}
			}
		}
		if active < tr.NumCPUs()/2 {
			t.Errorf("%s: only %d of %d cpus issue memory ops", name, active, tr.NumCPUs())
		}
	}
}

func TestScaleShrinksWork(t *testing.T) {
	for _, app := range Paper() {
		big, err := app.Generate(Params{CPUs: 32, Scale: 4})
		if err != nil {
			t.Fatal(err)
		}
		small, err := app.Generate(Params{CPUs: 32, Scale: 8})
		if err != nil {
			t.Fatal(err)
		}
		if small.Ops() >= big.Ops() {
			t.Errorf("%s: scale 8 (%d ops) not smaller than scale 4 (%d ops)",
				app.Name, small.Ops(), big.Ops())
		}
	}
}

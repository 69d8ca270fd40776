package apps

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Params selects the size of a generated workload.
type Params struct {
	// CPUs is the processor count (the cluster's total).
	CPUs int

	// Scale divides the default problem size: 1 reproduces the paper's
	// regime (scaled to our simulation budget); larger values shrink the
	// problem for tests and quick runs. Values below 1 are treated as 1.
	Scale int

	// Seed perturbs the random inputs of barnes, fmm, radix and
	// raytrace. cholesky, lu, ocean, migratory and synthetic ignore it:
	// their traces are the same at every seed. Info.ReadsSeed declares
	// which per app.
	Seed uint64
}

func (p Params) norm() Params {
	if p.CPUs <= 0 {
		p.CPUs = 32
	}
	if p.Scale < 1 {
		p.Scale = 1
	}
	return p
}

// Info describes one application generator.
type Info struct {
	// Name is the benchmark name used on the command line and in
	// reports.
	Name string

	// Description is a one-line summary.
	Description string

	// Input describes the default (Scale=1) problem size, mirroring
	// Table 2 of the paper.
	Input string

	// ReadsSeed says whether Params.Seed reaches the trace: true for the
	// generators with random inputs (barnes, fmm, radix and raytrace),
	// false for those whose trace is the same at every seed.
	// TestSeedReachesDocumentedApps holds each app to its declaration.
	ReadsSeed bool

	// Generate produces the trace.
	Generate func(p Params) (*trace.Trace, error)
}

var registry = map[string]Info{}

func register(i Info) {
	if _, dup := registry[i.Name]; dup {
		panic("apps: duplicate app " + i.Name)
	}
	registry[i.Name] = i
}

// All returns every registered application in name order.
func All() []Info {
	out := make([]Info, 0, len(registry))
	for _, i := range registry {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Paper returns the seven SPLASH-2 applications of Table 2 in the
// paper's presentation order.
func Paper() []Info {
	names := []string{"barnes", "cholesky", "fmm", "lu", "ocean", "radix", "raytrace"}
	out := make([]Info, 0, len(names))
	for _, n := range names {
		i, ok := registry[n]
		if !ok {
			panic("apps: paper app missing: " + n)
		}
		out = append(out, i)
	}
	return out
}

// Names returns every registered application name in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName returns the named application (surrounding whitespace
// ignored, so comma-separated flag values may contain spaces). An
// unknown name fails with an error that lists every registered
// application.
func ByName(name string) (Info, error) {
	i, ok := registry[strings.TrimSpace(name)]
	if !ok {
		return Info{}, fmt.Errorf("apps: unknown application %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return i, nil
}

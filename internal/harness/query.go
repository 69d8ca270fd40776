package harness

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
)

// Query identifies one memoizable experiment invocation: everything
// that determines the flat Record output of a run — which experiment,
// on which applications and systems, over which fabric, at which
// problem scale(s), from which generator seed. It is the unit the
// serving layer (internal/serve) caches and coalesces on. cmd/experiments
// builds one from its -experiment, -apps, -systems, -fabric, -scale,
// -scales and -seed flags and runs it through RunQuery, as the server
// does, so a served response is byte-identical to the equivalent CLI
// -json output.
//
// The zero value normalizes to the full Figure 5 comparison at scale 1.
type Query struct {
	// Experiment is any name of the experiment table ("fig5",
	// "table4", ..., "scalesweep"), or "all" for the Experiments()
	// set. Empty defaults to "fig5".
	Experiment string `json:"experiment,omitempty"`

	// Apps restricts the run to the named applications (empty = the
	// paper's seven).
	Apps []string `json:"apps,omitempty"`

	// Systems overrides the experiment's system set by dsm-registry
	// name (empty = the experiment's defaults).
	Systems []string `json:"systems,omitempty"`

	// Fabric overrides the interconnect topology (see Options.Fabric);
	// empty keeps the experiment's default.
	Fabric string `json:"fabric,omitempty"`

	// Scale is the problem-size divisor (values below 1 normalize to
	// 1). Ignored by "scalesweep", which sizes itself from Scales.
	Scale int `json:"scale,omitempty"`

	// Scales is the scale ladder for "scalesweep" (empty = the default
	// ladder); dropped by normalization for every other experiment.
	Scales []int `json:"scales,omitempty"`

	// Seed perturbs the workload generators that read it: barnes, fmm,
	// radix and raytrace (apps.Params.Seed).
	Seed uint64 `json:"seed,omitempty"`
}

// ParseScales parses a comma-separated scale ladder ("8,16,32"), the
// form the -scales flag and the server's scales= parameter take.
// Validate checks the values.
func ParseScales(s string) ([]int, error) {
	var scales []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad scales entry %q: %w", f, err)
		}
		scales = append(scales, n)
	}
	return scales, nil
}

// Normalize canonicalizes the query in place-free form: names are
// trimmed (systems also lowercased, matching the registry's
// case-insensitive lookup), defaults are made explicit, and fields the
// selected experiment ignores are dropped — so two queries that would
// produce identical output canonicalize to identical keys.
func (q Query) Normalize() Query {
	q.Experiment = strings.ToLower(strings.TrimSpace(q.Experiment))
	if q.Experiment == "" {
		q.Experiment = "fig5"
	}
	q.Apps = trimEach(q.Apps, false)
	q.Systems = trimEach(q.Systems, true)
	q.Fabric = strings.ToLower(strings.TrimSpace(q.Fabric))
	sweep := false
	if e, err := lookup(q.Experiment); err == nil {
		_, sweep = e.sweeps()
	}
	if sweep {
		// The sweep sizes itself from Scales; Scale is ignored.
		q.Scale = 0
		if len(q.Scales) == 0 {
			q.Scales = DefaultSweepScales()
		}
	} else {
		if q.Scale < 1 {
			q.Scale = 1
		}
		q.Scales = nil
	}
	return q
}

// trimEach trims every element, optionally lowercasing, dropping
// empties; nil stays nil so "unset" and "set to nothing" coincide.
func trimEach(in []string, lower bool) []string {
	var out []string
	for _, s := range in {
		s = strings.TrimSpace(s)
		if lower {
			s = strings.ToLower(s)
		}
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Validate rejects queries that could not run: unknown experiment,
// application, system or fabric names, an application, system or scale
// listed twice, non-positive sweep scales, and a fabric override on an
// experiment that picks every run's fabric itself (the topology sweep,
// and so "all"). It expects a normalized query (Validate on a raw query
// may miss aliases Normalize folds).
func (q Query) Validate() error {
	if err := checkDistinct(q.Apps, q.Systems, q.Scales); err != nil {
		return err
	}
	var rows []*experiment
	for _, name := range q.ExperimentNames() {
		e, err := lookup(name)
		if err != nil {
			return fmt.Errorf("%w, or all", err)
		}
		rows = append(rows, e)
	}
	for _, a := range q.Apps {
		if _, err := apps.ByName(a); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	}
	if len(q.Systems) > 0 {
		if _, err := dsm.ResolveSpecs(q.Systems, config.DefaultThresholds()); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	}
	if q.Fabric != "" {
		if err := (config.Network{Topology: q.Fabric}).Validate(config.DefaultCluster().Nodes); err != nil {
			return fmt.Errorf("harness: fabric %q: %w", q.Fabric, err)
		}
		for _, e := range rows {
			if fabric, _ := e.sweeps(); fabric {
				return fmt.Errorf("harness: experiment %q already runs every fabric; drop the fabric override", q.Experiment)
			}
		}
	}
	for _, sc := range q.Scales {
		if sc < 1 {
			return fmt.Errorf("harness: scalesweep: invalid scale %d", sc)
		}
	}
	return nil
}

// checkDistinct rejects an application, system or scale listed twice.
// A repeat adds no information: reports key runs by application and
// system label, so it would print duplicate rows, collapse columns or
// repeat a sweep table. Names compare the way their registries resolve
// them (systems case-insensitively). RunByName, RunSystems and Validate
// all call it, so the CLIs and the server refuse the same lists.
func checkDistinct(appNames, systems []string, scales []int) error {
	if a, dup := repeated(appNames, strings.TrimSpace); dup {
		return fmt.Errorf("harness: application %q listed twice", a)
	}
	systemKey := func(s string) string { return strings.ToLower(strings.TrimSpace(s)) }
	if s, dup := repeated(systems, systemKey); dup {
		return fmt.Errorf("harness: system %q listed twice", s)
	}
	if sc, dup := repeated(scales, func(sc int) int { return sc }); dup {
		return fmt.Errorf("harness: scale %d listed twice", sc)
	}
	return nil
}

// repeated returns the first element of xs whose key an earlier
// element already had.
func repeated[T any, K comparable](xs []T, key func(T) K) (T, bool) {
	seen := make(map[K]bool, len(xs))
	for _, x := range xs {
		k := key(x)
		if seen[k] {
			return x, true
		}
		seen[k] = true
	}
	var zero T
	return zero, false
}

// Canonical renders the normalized query as a stable, unambiguous key
// string — the cache-key canonicalization the result-memoization layer
// hashes. List order is preserved (it determines record order in the
// output), and every field appears even when defaulted, so the
// encoding never aliases two distinct queries.
func (q Query) Canonical() string {
	q = q.Normalize()
	var b strings.Builder
	b.WriteString("experiment=")
	b.WriteString(q.Experiment)
	b.WriteString("\x00apps=")
	b.WriteString(strings.Join(q.Apps, ","))
	b.WriteString("\x00systems=")
	b.WriteString(strings.Join(q.Systems, ","))
	b.WriteString("\x00fabric=")
	b.WriteString(q.Fabric)
	fmt.Fprintf(&b, "\x00scale=%d", q.Scale)
	b.WriteString("\x00scales=")
	for i, sc := range q.Scales {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(sc))
	}
	fmt.Fprintf(&b, "\x00seed=%d", q.Seed)
	return b.String()
}

// ExperimentNames resolves the query's experiment selector to the run
// list: the Experiments() set for "all", else the single name.
func (q Query) ExperimentNames() []string {
	if strings.ToLower(strings.TrimSpace(q.Experiment)) == "all" {
		return Experiments()
	}
	return []string{q.Normalize().Experiment}
}

// Options maps the query onto run options, inheriting the execution
// knobs (parallelism, audit, caches, writers) from base. The identity
// fields (scale, scales, seed, apps, systems, fabric) come from the
// query alone.
func (q Query) Options(base Options) Options {
	q = q.Normalize()
	base.Scale = q.Scale
	base.Scales = append([]int(nil), q.Scales...)
	base.Seed = q.Seed
	base.Apps = append([]string(nil), q.Apps...)
	base.Systems = append([]string(nil), q.Systems...)
	base.Fabric = q.Fabric
	return base
}

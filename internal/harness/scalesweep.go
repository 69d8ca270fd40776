package harness

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/config"
	"repro/internal/dsm"
)

// DefaultSweepScales is the problem-scale ladder the scale sweep runs
// when Options.Scales is empty: from the largest input the test budget
// sustains (the divisor 8 of the full reproduction size) down through
// three successive halvings.
func DefaultSweepScales() []int { return []int{8, 16, 32, 64} }

// scaleLabel names one (system, scale) combination in reports.
func scaleLabel(sys string, scale int) string { return sys + "@s" + strconv.Itoa(scale) }

// scaleSweepSystems resolves the sweep's system set: the Figure 5 base
// systems by default, or an Options.Systems registry override.
func scaleSweepSystems(o Options, th config.Thresholds) ([]dsm.Spec, error) {
	if len(o.Systems) == 0 {
		return dsm.AllBaseSystems(), nil
	}
	specs, err := dsm.ResolveSpecs(o.Systems, th)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return specs, nil
}

// ScaleSweep runs the Figure 5 comparison across problem scales: every
// sweep system on every scale of Options.Scales (DefaultSweepScales
// when empty), each scale normalized to perfect CC-NUMA at the same
// scale. Where Figure 5 fixes the working set and varies the memory
// system, the sweep varies the working set too — the regime the
// locality literature says flips conclusions: as footprints shrink
// toward cache sizes, capacity misses (R-NUMA's prey) vanish before
// sharing misses do, and the paper's traffic ordering compresses. The
// per-scale traffic table makes that visible directly in bytes moved.
//
// Options.Scale is ignored; the sweep's scales come from
// Options.Scales. Each (app, system, scale) run appears in the Result
// with label "system@s<scale>" (the bare system name stays in
// Record.System, so downstream tooling can group either way).
func ScaleSweep(o Options) (*Result, error) {
	o = o.norm()
	scales := o.Scales
	if len(scales) == 0 {
		scales = DefaultSweepScales()
	}
	for _, sc := range scales {
		if sc < 1 {
			return nil, fmt.Errorf("harness: scalesweep: invalid scale %d", sc)
		}
	}
	tm, th := config.Default(), config.DefaultThresholds()
	specs, err := scaleSweepSystems(o, th)
	if err != nil {
		return nil, err
	}
	sysNames := make([]string, len(specs))
	for i, spec := range specs {
		sysNames[i] = spec.Name
	}

	merged := &Result{Name: "scalesweep", Runs: map[string]map[string]*Run{}}
	for _, sc := range scales {
		var systems []systemRun
		for _, spec := range specs {
			systems = append(systems, systemRun{
				spec: spec, tm: tm, th: th,
				label: scaleLabel(spec.Name, sc),
			})
		}
		so := o
		so.Scale = sc
		// Systems are already resolved into labeled runs; a pass-through
		// override would re-resolve them without the scale labels.
		so.Systems = nil
		r, err := runExperiment("scalesweep", systems, so)
		if err != nil {
			return nil, err
		}
		merged.AppOrder = r.AppOrder
		merged.Systems = append(merged.Systems, r.Systems...)
		for app, runs := range r.Runs {
			if merged.Runs[app] == nil {
				merged.Runs[app] = map[string]*Run{}
			}
			for label, run := range runs {
				merged.Runs[app][label] = run
			}
		}
		for _, ref := range r.Traces {
			seen := false
			for _, have := range merged.Traces {
				if have.Hash == ref.Hash {
					seen = true
					break
				}
			}
			if !seen {
				merged.Traces = append(merged.Traces, ref)
			}
		}
	}
	merged.Scales = scales

	merged.render = func(w io.Writer, r *Result) {
		header(w, "Scale sweep: Figure 5 systems across problem scales")
		for _, sc := range scales {
			fmt.Fprintf(w, "-- scale %d (normalized execution time vs perfect CC-NUMA at scale %d)\n", sc, sc)
			view := &Result{Name: r.Name, AppOrder: r.AppOrder, Runs: r.Runs}
			for _, sys := range sysNames {
				view.Systems = append(view.Systems, scaleLabel(sys, sc))
			}
			renderNormTable(w, view)
			fmt.Fprintln(w)
		}
		renderScaleTrafficTable(w, r, sysNames, scales)
	}
	merged.WriteText(o.Out)
	return merged, nil
}

// renderScaleTrafficTable prints, per application and scale, every
// system's total remote traffic in KB — the paper's headline metric,
// now as a function of working-set size.
func renderScaleTrafficTable(w io.Writer, r *Result, systems []string, scales []int) {
	fmt.Fprintln(w, "total remote traffic (KB)")
	fmt.Fprintf(w, "%-10s %-6s", "app", "scale")
	for _, s := range systems {
		fmt.Fprintf(w, " %10s", s)
	}
	fmt.Fprintln(w)
	for _, app := range r.AppOrder {
		for _, sc := range scales {
			fmt.Fprintf(w, "%-10s %-6d", app, sc)
			for _, s := range systems {
				var kb float64
				if run := r.Runs[app][scaleLabel(s, sc)]; run != nil {
					kb = float64(run.Stats.TotalTrafficBytes()) / 1024
				}
				fmt.Fprintf(w, " %10.0f", kb)
			}
			fmt.Fprintln(w)
		}
	}
}

package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/stats"
)

// baseSystemRuns builds the default Figure 5 systems under a
// timing/threshold environment.
func baseSystemRuns(tm config.Timing, th config.Thresholds) []systemRun {
	var out []systemRun
	for _, s := range dsm.AllBaseSystems() {
		out = append(out, systemRun{spec: s, tm: tm, th: th})
	}
	return out
}

// Fig5 reproduces Figure 5: base performance of CC-NUMA, Rep, Mig,
// MigRep, R-NUMA and R-NUMA-Inf, normalized to perfect CC-NUMA.
func Fig5(o Options) (*Result, error) {
	tm, th := config.Default(), config.DefaultThresholds()
	systems, err := o.systemRuns(baseSystemRuns(tm, th), tm, th)
	if err != nil {
		return nil, err
	}
	r, err := runExperiment("fig5", systems, o)
	if err != nil {
		return nil, err
	}
	r.render = func(w io.Writer, r *Result) {
		header(w, "Figure 5: base normalized execution time (vs perfect CC-NUMA)")
		renderNormTable(w, r)
	}
	r.WriteText(o.Out)
	return r, nil
}

// Table4 reproduces Table 4: per-node page operations and per-node
// remote misses (overall, with capacity/conflict in parentheses) for
// CC-NUMA, CC-NUMA+MigRep and R-NUMA.
func Table4(o Options) (*Result, error) {
	tm, th := config.Default(), config.DefaultThresholds()
	def := []systemRun{
		{spec: dsm.CCNUMA(), tm: tm, th: th},
		{spec: dsm.MigRep(), tm: tm, th: th},
		{spec: dsm.RNUMA(), tm: tm, th: th},
	}
	systems, err := o.systemRuns(def, tm, th)
	if err != nil {
		return nil, err
	}
	overridden := len(o.Systems) > 0
	r, err := runExperiment("table4", systems, o)
	if err != nil {
		return nil, err
	}
	r.render = func(w io.Writer, r *Result) {
		if overridden {
			// The paper's column layout names its three systems; an
			// overridden set gets the generic normalized table.
			header(w, "Table 4 (system override): normalized execution time")
			renderNormTable(w, r)
			return
		}
		header(w, "Table 4: per-node page operations and remote misses (x1000)")
		fmt.Fprintf(w, "%-10s %9s %11s %10s | %14s %16s %12s\n",
			"app", "migration", "replication", "relocation", "CC-NUMA", "CC-NUMA+MigRep", "R-NUMA")
		for _, app := range r.AppOrder {
			mr := r.Runs[app]["MigRep"].Stats
			rn := r.Runs[app]["R-NUMA"].Stats
			cc := r.Runs[app]["CC-NUMA"].Stats
			row := func(s *stats.Sim) string {
				return fmt.Sprintf("%.0f (%.0f)",
					s.PerNodeRemoteMisses()/1000,
					s.PerNodeRemoteMissesByClass(stats.CapacityConflict)/1000)
			}
			fmt.Fprintf(w, "%-10s %9.0f %11.0f %10.0f | %14s %16s %12s\n",
				app,
				mr.PerNodePageOps(stats.Migration),
				mr.PerNodePageOps(stats.Replication),
				rn.PerNodePageOps(stats.Relocation),
				row(cc), row(mr), row(rn))
		}
	}
	r.WriteText(o.Out)
	return r, nil
}

// Fig6 reproduces Figure 6: MigRep and R-NUMA under fast and slow page
// operation support. Slow systems pay 10x traps and TLB shootdowns plus
// extra copy time, and use the raised thresholds of Section 6.2. A
// system override runs the named systems under both environments.
func Fig6(o Options) (*Result, error) {
	fastTM, fastTH := config.Default(), config.DefaultThresholds()
	slowTM, slowTH := config.Slow(), config.SlowThresholds()
	def := []systemRun{
		{spec: dsm.MigRep(), tm: fastTM, th: fastTH, label: "MigRep-Fast"},
		{spec: dsm.MigRep(), tm: slowTM, th: slowTH, label: "MigRep-Slow"},
		{spec: dsm.RNUMA(), tm: fastTM, th: fastTH, label: "R-NUMA-Fast"},
		{spec: dsm.RNUMA(), tm: slowTM, th: slowTH, label: "R-NUMA-Slow"},
	}
	systems := def
	if len(o.Systems) > 0 {
		fasts, err := dsm.ResolveSpecs(o.Systems, fastTH)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		slows, err := dsm.ResolveSpecs(o.Systems, slowTH)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		systems = nil
		for i := range fasts {
			systems = append(systems,
				systemRun{spec: fasts[i], tm: fastTM, th: fastTH, label: fasts[i].Name + "-Fast"},
				systemRun{spec: slows[i], tm: slowTM, th: slowTH, label: slows[i].Name + "-Slow"})
		}
	}
	r, err := runExperiment("fig6", systems, o)
	if err != nil {
		return nil, err
	}
	r.render = func(w io.Writer, r *Result) {
		header(w, "Figure 6: sensitivity to page operation overhead (vs perfect CC-NUMA)")
		renderNormTable(w, r)
	}
	r.WriteText(o.Out)
	return r, nil
}

// Fig7 reproduces Figure 7: CC-NUMA, MigRep and R-NUMA with the network
// latency scaled 4x (remote:local ratio of 16).
func Fig7(o Options) (*Result, error) {
	tm := config.Default().ScaleNetwork(4)
	th := config.DefaultThresholds()
	def := []systemRun{
		{spec: dsm.CCNUMA(), tm: tm, th: th},
		{spec: dsm.MigRep(), tm: tm, th: th},
		{spec: dsm.RNUMA(), tm: tm, th: th},
	}
	systems, err := o.systemRuns(def, tm, th)
	if err != nil {
		return nil, err
	}
	r, err := runExperiment("fig7", systems, o)
	if err != nil {
		return nil, err
	}
	r.render = func(w io.Writer, r *Result) {
		header(w, "Figure 7: 4x network latency (vs perfect CC-NUMA at base latency)")
		renderNormTable(w, r)
	}
	r.WriteText(o.Out)
	return r, nil
}

// Fig8 reproduces Figure 8: R-NUMA with a halved page cache, with and
// without integrated MigRep (relocation delayed by 32000 misses), against
// CC-NUMA, MigRep and base R-NUMA.
func Fig8(o Options) (*Result, error) {
	tm, th := config.Default(), config.DefaultThresholds()
	// The paper delays relocation by one full reset interval (32000
	// misses), several times the R-NUMA switching threshold, so that
	// migration/replication gets the first shot at a page while hot
	// pages still relocate eventually. Our scaled inputs see far fewer
	// misses per page, so the delay keeps the same ratio to the
	// switching threshold (32000 = 1000x of 32 at paper scale is
	// unreachable here; 8x preserves the mechanism without starving
	// relocation entirely). The "rnuma-half-migrep" registry entry
	// encodes the same 8x rule.
	delay := th.RNUMAThreshold * 8
	def := []systemRun{
		{spec: dsm.CCNUMA(), tm: tm, th: th},
		{spec: dsm.MigRep(), tm: tm, th: th},
		{spec: dsm.RNUMAHalf(), tm: tm, th: th},
		{spec: dsm.RNUMAHalfMigRep(delay), tm: tm, th: th},
		{spec: dsm.RNUMA(), tm: tm, th: th},
	}
	systems, err := o.systemRuns(def, tm, th)
	if err != nil {
		return nil, err
	}
	r, err := runExperiment("fig8", systems, o)
	if err != nil {
		return nil, err
	}
	r.render = func(w io.Writer, r *Result) {
		header(w, "Figure 8: R-NUMA page-cache halving and MigRep integration")
		renderNormTable(w, r)
	}
	r.WriteText(o.Out)
	return r, nil
}

// Experiments lists the experiment names an "all" run executes: the
// paper's figures and tables plus the topology sweep. The scale sweep
// ("scalesweep") is runnable by name but deliberately not part of
// "all": it re-runs Figure 5 at several problem scales, which both
// multiplies runtime and keyed-output volume, and an "all" pass is the
// baseline whose text/CSV/JSON must stay comparable across PRs.
func Experiments() []string {
	return []string{"fig5", "table4", "fig6", "fig7", "fig8", "toposweep"}
}

// RunByNameContext is RunByName with cancellation: the run stops
// scheduling new simulations once ctx is cancelled and returns the
// context's error. Simulations already executing finish — the engine
// has no preemption points — so cancellation latency is one
// simulation, not one experiment. This is the entry point a serving
// layer wants: a drained server abandons queued sweeps without
// killing the process.
func RunByNameContext(ctx context.Context, name string, o Options) (*Result, error) {
	o.ctx = ctx
	return RunByName(name, o)
}

// RunByName dispatches one experiment (any Experiments() name, plus
// "scalesweep"). An application, system or scale listed twice in o is
// an error.
func RunByName(name string, o Options) (*Result, error) {
	if err := checkDistinct(o.Apps, o.Systems, o.Scales); err != nil {
		return nil, err
	}
	switch name {
	case "fig5":
		return Fig5(o)
	case "table4":
		return Table4(o)
	case "fig6":
		return Fig6(o)
	case "fig7":
		return Fig7(o)
	case "fig8":
		return Fig8(o)
	case "toposweep":
		return TopoSweep(o)
	case "scalesweep":
		return ScaleSweep(o)
	default:
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v, scalesweep)", name, Experiments())
	}
}

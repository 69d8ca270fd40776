package harness

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/stats"
)

// env is one environment an experiment runs its systems under: a
// timing and threshold set, and optionally a fabric or a problem scale.
// Its suffix tells the environment's runs apart in report labels
// ("MigRep-Slow", "CC-NUMA@ring", "CC-NUMA@s16").
type env struct {
	suffix string
	tm     config.Timing
	th     config.Thresholds
	// net is the interconnect; the zero value is the ideal crossbar.
	net config.Network
	// scale is the problem scale (0 = Options.Scale).
	scale int
}

// baseEnv is the paper's base timing and thresholds.
func baseEnv() env { return env{tm: config.Default(), th: config.DefaultThresholds()} }

// experiment is one row of the experiment table.
type experiment struct {
	name, title string
	// systems are the row's default systems by registry name;
	// Options.Systems replaces them.
	systems []string
	// envs lists the environments every system runs under, given the
	// sweep scales (Options.Scales, or DefaultSweepScales when empty);
	// nil runs them under baseEnv.
	envs func(scales []int) []env
	// bySystem orders the runs system by system, each under every
	// environment; otherwise environment by environment.
	bySystem bool
	// body renders the report below the title, from the bare system
	// names and the environments (nil = the normalized table).
	body func(w io.Writer, r *Result, systems []string, envs []env)
	// overrideTitle, when set, is the title an Options.Systems override
	// prints instead, over the normalized table: the row's body reads
	// its default systems.
	overrideTitle string
	// byNameOnly keeps the row out of an "all" run.
	byNameOnly bool
}

// experiments is the experiment table, in presentation order. An "all"
// run executes every row not marked byNameOnly.
var experiments = []experiment{
	{
		name:    "fig5",
		title:   "Figure 5: base normalized execution time (vs perfect CC-NUMA)",
		systems: []string{"ccnuma", "rep", "mig", "migrep", "rnuma", "rnuma-inf"},
	},
	{
		// Table 4: per-node page operations and per-node remote misses
		// (overall, with capacity/conflict in parentheses).
		name:          "table4",
		title:         "Table 4: per-node page operations and remote misses (x1000)",
		systems:       []string{"ccnuma", "migrep", "rnuma"},
		body:          renderTable4,
		overrideTitle: "Table 4 (system override): normalized execution time",
	},
	{
		// Slow systems pay 10x traps and TLB shootdowns plus extra copy
		// time, and use the raised thresholds of Section 6.2.
		name:    "fig6",
		title:   "Figure 6: sensitivity to page operation overhead (vs perfect CC-NUMA)",
		systems: []string{"migrep", "rnuma"},
		envs: func([]int) []env {
			fast, slow := baseEnv(), env{tm: config.Slow(), th: config.SlowThresholds()}
			fast.suffix, slow.suffix = "-Fast", "-Slow"
			return []env{fast, slow}
		},
		bySystem: true,
	},
	{
		// The network latency scaled 4x: a remote:local ratio of 16.
		name:    "fig7",
		title:   "Figure 7: 4x network latency (vs perfect CC-NUMA at base latency)",
		systems: []string{"ccnuma", "migrep", "rnuma"},
		envs: func([]int) []env {
			e := baseEnv()
			e.tm = e.tm.ScaleNetwork(4)
			return []env{e}
		},
	},
	{
		// R-NUMA with a halved page cache, with and without integrated
		// MigRep. The paper delays relocation by one full reset interval
		// (32000 misses), several times the R-NUMA switching threshold,
		// so that migration/replication gets the first shot at a page
		// while hot pages still relocate eventually. Our scaled inputs
		// see far fewer misses per page, so the registry's
		// "rnuma-half-migrep" keeps the same ratio to the switching
		// threshold (32000 = 1000x of 32 at paper scale is unreachable
		// here; 8x preserves the mechanism without starving relocation
		// entirely).
		name:    "fig8",
		title:   "Figure 8: R-NUMA page-cache halving and MigRep integration",
		systems: []string{"ccnuma", "migrep", "rnuma-half", "rnuma-half-migrep", "rnuma"},
	},
	{
		// Beyond the paper: the Figure 5 comparison on every fabric,
		// normalized to perfect CC-NUMA on the ideal crossbar, with the
		// maximum per-link load and the bisection traffic of every run —
		// where migration/replication's bulk 4-KB page moves separate
		// from fine-grain 64-byte caching.
		name:    "toposweep",
		title:   "Topology sweep: Figure 5 across interconnect fabrics",
		systems: []string{"ccnuma", "migrep", "rnuma"},
		envs: func([]int) []env {
			var out []env
			for _, topo := range []string{config.TopoCrossbar, config.TopoRing, config.TopoMesh, config.TopoFatTree} {
				e := baseEnv()
				e.net = config.Network{Topology: topo}
				e.suffix = "@" + topo
				out = append(out, e)
			}
			return out
		},
		body: renderTopoSweep,
	},
	{
		// The Figure 5 comparison across problem scales, each scale
		// normalized to perfect CC-NUMA at that scale. As footprints
		// shrink toward cache sizes, capacity misses (R-NUMA's prey)
		// vanish before sharing misses do; the per-scale traffic table
		// shows it in bytes moved. It is not part of "all": it
		// multiplies runtime and record volume, and an "all" pass is the
		// baseline whose output stays comparable across changes.
		name:    "scalesweep",
		title:   "Scale sweep: Figure 5 systems across problem scales",
		systems: []string{"ccnuma", "rep", "mig", "migrep", "rnuma", "rnuma-inf"},
		envs: func(scales []int) []env {
			var out []env
			for _, sc := range scales {
				e := baseEnv()
				e.scale = sc
				e.suffix = "@s" + strconv.Itoa(sc)
				out = append(out, e)
			}
			return out
		},
		body:       renderScaleSweep,
		byNameOnly: true,
	},
}

// lookup finds a row of the experiment table by name.
func lookup(name string) (*experiment, error) {
	var names []string
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i], nil
		}
		names = append(names, experiments[i].name)
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %s)", name, strings.Join(names, ", "))
}

// environments resolves the row's environments for the given sweep
// scales.
func (e *experiment) environments(scales []int) []env {
	if e.envs == nil {
		return []env{baseEnv()}
	}
	if len(scales) == 0 {
		scales = DefaultSweepScales()
	}
	return e.envs(scales)
}

// sweeps reports which run parameters the row's environments pick
// themselves: the fabric, so that an override would be meaningless,
// and the problem scale, taken from Options.Scales instead of
// Options.Scale.
func (e *experiment) sweeps() (fabric, scale bool) {
	for _, en := range e.environments(nil) {
		fabric = fabric || en.net.Topology != ""
		scale = scale || en.scale != 0
	}
	return fabric, scale
}

// runs resolves the row's systems — its defaults, or the
// Options.Systems override — through the dsm registry under each
// environment's thresholds, in presentation order, and returns them
// with the bare system names. Unknown names fail with the registry's
// error, which lists every registered system.
func (e *experiment) runs(o Options, envs []env) ([]systemRun, []string, error) {
	names := e.systems
	if len(o.Systems) > 0 {
		names = o.Systems
	}
	grid := make([][]dsm.Spec, len(envs))
	for i, en := range envs {
		specs, err := dsm.ResolveSpecs(names, en.th)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: %w", err)
		}
		grid[i] = specs
	}
	var out []systemRun
	if e.bySystem {
		for s := range names {
			for i, en := range envs {
				out = append(out, systemRun{spec: grid[i][s], env: en})
			}
		}
	} else {
		for i, en := range envs {
			for s := range names {
				out = append(out, systemRun{spec: grid[i][s], env: en})
			}
		}
	}
	systems := make([]string, len(names))
	for s := range names {
		systems[s] = grid[0][s].Name
	}
	return out, systems, nil
}

// Experiments lists the experiment names an "all" run executes, in
// order: the paper's figures and tables plus the topology sweep.
func Experiments() []string {
	var out []string
	for _, e := range experiments {
		if !e.byNameOnly {
			out = append(out, e.name)
		}
	}
	return out
}

// RunByName runs one experiment of the table as a query (RunQuery) and
// writes its text report to o.Out. An application, system or scale
// listed twice, an unknown name or a fabric override the experiment
// cannot take fails before any simulation runs.
func RunByName(name string, o Options) (*Result, error) {
	// Checked before normalization too, so the error quotes the
	// caller's spelling.
	if err := checkDistinct(o.Apps, o.Systems, o.Scales); err != nil {
		return nil, err
	}
	if _, err := lookup(name); err != nil {
		return nil, err
	}
	if o.Out == nil {
		panic("harness: Options.Out is required")
	}
	q := Query{Experiment: name, Apps: o.Apps, Systems: o.Systems, Fabric: o.Fabric, Scale: o.Scale, Scales: o.Scales, Seed: o.Seed}
	rs, err := RunQuery(context.Background(), q, o)
	if err != nil {
		return nil, err
	}
	rs[0].WriteText(o.Out)
	return rs[0], nil
}

// renderTable4 prints the paper's Table 4 layout: MigRep's migrations
// and replications and R-NUMA's relocations per node, then each
// system's remote misses per node with the capacity/conflict share.
func renderTable4(w io.Writer, r *Result, _ []string, _ []env) {
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

// renderSections prints one normalized table per environment under the
// heading head gives it, each followed by a blank line.
func renderSections(w io.Writer, r *Result, systems []string, envs []env, head func(env) string) {
	for _, en := range envs {
		fmt.Fprintf(w, "-- %s\n", head(en))
		view := &Result{AppOrder: r.AppOrder, Runs: r.Runs}
		for _, s := range systems {
			view.Systems = append(view.Systems, s+en.suffix)
		}
		renderNormTable(w, view)
		fmt.Fprintln(w)
	}
}

// renderTopoSweep prints the sweep's per-fabric tables, then per
// application and fabric the maximum per-link load and the bisection
// traffic of every system, in KB.
func renderTopoSweep(w io.Writer, r *Result, systems []string, envs []env) {
	renderSections(w, r, systems, envs, func(en env) string {
		return en.net.Kind() + " (normalized execution time vs perfect CC-NUMA on crossbar)"
	})
	fmt.Fprintln(w, "maximum per-link load / bisection traffic (KB)")
	fmt.Fprintf(w, "%-10s %-9s", "app", "topology")
	for _, s := range systems {
		fmt.Fprintf(w, " %9s", s)
	}
	fmt.Fprintf(w, " |")
	for _, s := range systems {
		fmt.Fprintf(w, " %9s", s)
	}
	fmt.Fprintln(w)
	net := func(app, label string) *stats.NetStats {
		if run := r.Runs[app][label]; run != nil && run.Stats.Net != nil {
			return run.Stats.Net
		}
		return &stats.NetStats{}
	}
	for _, app := range r.AppOrder {
		for _, en := range envs {
			fmt.Fprintf(w, "%-10s %-9s", app, en.net.Kind())
			for _, s := range systems {
				fmt.Fprintf(w, " %9.0f", float64(net(app, s+en.suffix).MaxLink().Bytes)/1024)
			}
			fmt.Fprintf(w, " |")
			for _, s := range systems {
				fmt.Fprintf(w, " %9.0f", float64(net(app, s+en.suffix).BisectionBytes)/1024)
			}
			fmt.Fprintln(w)
		}
	}
}

// renderScaleSweep prints the sweep's per-scale tables, then per
// application and scale every system's total remote traffic in KB —
// the paper's headline metric as a function of working-set size.
func renderScaleSweep(w io.Writer, r *Result, systems []string, envs []env) {
	renderSections(w, r, systems, envs, func(en env) string {
		return fmt.Sprintf("scale %d (normalized execution time vs perfect CC-NUMA at scale %d)", en.scale, en.scale)
	})
	fmt.Fprintln(w, "total remote traffic (KB)")
	fmt.Fprintf(w, "%-10s %-6s", "app", "scale")
	for _, s := range systems {
		fmt.Fprintf(w, " %10s", s)
	}
	fmt.Fprintln(w)
	for _, app := range r.AppOrder {
		for _, en := range envs {
			fmt.Fprintf(w, "%-10s %-6d", app, en.scale)
			for _, s := range systems {
				var kb float64
				if run := r.Runs[app][s+en.suffix]; run != nil {
					kb = float64(run.Stats.TotalTrafficBytes()) / 1024
				}
				fmt.Fprintf(w, " %10.0f", kb)
			}
			fmt.Fprintln(w)
		}
	}
}

// DefaultSweepScales is the problem-scale ladder the scale sweep runs
// when Options.Scales is empty: from the largest input the test budget
// sustains (the divisor 8 of the full reproduction size) down through
// three successive halvings.
func DefaultSweepScales() []int { return []int{8, 16, 32, 64} }

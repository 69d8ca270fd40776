// Package harness defines and runs the paper's experiments: Figure 5
// (base comparison), Table 4 (page operations and miss counts), Figure 6
// (fast vs slow page operations), Figure 7 (4x network latency), and
// Figure 8 (R-NUMA page-cache halving with MigRep integration). Each
// experiment runs every application on its systems and normalizes
// execution time against perfect CC-NUMA.
//
// The experiments are rows of one table (experiments.go): a name, a
// title, default systems, the timing, threshold, fabric or scale
// environments they run under, and an optional report body. RunQuery,
// RunByName, Experiments, Query.Validate and the unknown-experiment
// errors all read that table, and RunQuery runs each distinct
// simulation of a query once (plan.go).
//
// Systems resolve through the dsm registry: every experiment has the
// paper's default set, and Options.Systems overrides it with any list
// of registered system names — including systems added after the
// paper, such as the contention-aware "migrep-contend" — without the
// harness knowing them individually.
//
// An experiment returns a structured Result: one record per (app,
// system, fabric) run carrying normalized time, miss and page-op
// breakdowns, traffic, and interconnect hot-link/bisection stats.
// WriteText reproduces the paper-style tables (locked byte-for-byte by
// the golden tests); Records flattens the runs, which WriteCSVRows and
// RecordsJSON render for downstream tooling.
//
// Two rows go beyond the paper. The topology sweep ("toposweep")
// re-runs the Figure 5 comparison across interconnect fabrics
// (crossbar, ring, 2D mesh, fat-tree) and reports each run's maximum
// per-link load and bisection traffic from the per-link counters of
// internal/interconnect. The scale sweep ("scalesweep", runnable by
// name but not part of "all") re-runs it across problem scales.
package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Options configures an experiment run.
type Options struct {
	// Scale shrinks the application inputs (1 = full reproduction
	// size). Tests and benchmarks use larger values.
	Scale int

	// Seed perturbs the inputs of the generators that read it, barnes,
	// fmm, radix and raytrace (0 = the paper's inputs); the others
	// generate the same trace at every seed (apps.Params.Seed). It is
	// part of the trace cache's key, so distinct seeds are distinct
	// workloads.
	Seed uint64

	// Fabric overrides the interconnect topology of every non-baseline
	// run ("" = the experiment's own default, the ideal crossbar).
	// Accepts the config topology names: crossbar, ring, mesh,
	// fattree. Normalization still runs perfect CC-NUMA on the ideal
	// crossbar — the same anchor the topology sweep uses — and the
	// sweep itself rejects an override (it already runs every fabric).
	Fabric string

	// Apps restricts the run to the named applications (nil = the
	// paper's seven).
	Apps []string

	// Systems overrides the experiment's default system set with
	// memory systems named in the dsm registry (nil = the experiment's
	// own defaults). Overridden systems run under the experiment's
	// base timing and thresholds; the topology sweep runs each named
	// system on every fabric.
	Systems []string

	// Scales lists the problem scales the scale-sweep experiment runs
	// (nil = DefaultSweepScales). Ignored by every other experiment,
	// which size themselves from Scale.
	Scales []int

	// Parallel runs this many of a query's simulations concurrently
	// (0 = serial). Simulations are deterministic and independent, so
	// this only affects wall-clock time.
	Parallel int

	// Slots, when non-nil, bounds the simulations in flight across
	// every run that shares it: each simulation holds one slot while it
	// runs, on top of the run's own Parallel bound. A server hands one
	// set to all of its queries, so a lone query can fill every slot
	// and concurrent queries take turns. nil leaves Parallel as the
	// only bound.
	Slots *Slots

	// Audit enables the machines' self-auditing mode: event-time
	// discipline is enforced while each simulation runs and the
	// internal/audit conservation checks (traffic ⇄ fabric byte
	// conservation, page-busy monotonicity, directory/cache agreement)
	// run over every finished machine; any violation fails the
	// experiment. Auditing does not change simulated results.
	Audit bool

	// Traces, when non-nil, shares generated application traces across
	// queries (nil = a cache per query). Traces are read-only during
	// replay, so sharing is safe even across Parallel workers.
	Traces *TraceCache

	// Telemetry, when non-nil, attaches a telemetry.Collector to every
	// simulation but the anchor: windowed time series always, the
	// page-operation timeline when telemetry.Config.Timeline is set.
	// Collectors hang off each Run; Result.WriteTelemetry renders them
	// as artifacts. Collection is observational — reported statistics
	// are byte-identical with or without it.
	Telemetry *telemetry.Config

	// Progress, when non-nil, receives the plan's run and simulation
	// counts, then one line per completed simulation with its wall
	// time and one per trace with its size. It has its own writer, so
	// it can stream to stderr while the report goes to stdout.
	Progress io.Writer

	// Out receives the rendered report (required by RunByName).
	Out io.Writer
}

// appList resolves the selected applications.
func (o Options) appList() ([]apps.Info, error) {
	if len(o.Apps) == 0 {
		return apps.Paper(), nil
	}
	out := make([]apps.Info, 0, len(o.Apps))
	for _, n := range o.Apps {
		i, err := apps.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, i)
	}
	return out, nil
}

// Run is one simulation outcome.
type Run struct {
	App string
	// System is the bare system name ("CC-NUMA"); Label is the run's
	// presentation label, which may add the environment ("MigRep-Slow",
	// "CC-NUMA@ring"). Results key their Runs maps by Label.
	System string
	Label  string
	// Fabric is the interconnect topology the run used.
	Fabric string
	// Stats, Base (the anchor's) and Telemetry are read-only, shared by
	// every run of one simulation. Norm is Stats over Base.
	Stats *stats.Sim
	Base  *stats.Sim
	Norm  float64
	// Telemetry is the run's collector when Options.Telemetry was set
	// (nil otherwise, and always nil for the normalization baseline).
	Telemetry *telemetry.Collector
}

// Result is a completed experiment: the structured records of every
// (app, system, fabric) run, plus the metadata the renderers need.
// WriteText reproduces the paper-style report; Records flattens the
// runs for downstream tooling.
type Result struct {
	Name string
	// Systems in presentation order.
	Systems []string
	// Runs indexed by app then system.
	Runs map[string]map[string]*Run
	// AppOrder preserves presentation order.
	AppOrder []string

	// Scale and Scales record the problem size(s) the experiment ran,
	// for the run manifest (Scales only for the scale sweep).
	Scale  int
	Scales []int
	// Traces identifies every workload the experiment replayed: one
	// entry per generated trace.
	Traces []telemetry.TraceRef

	// render writes the experiment's text report; set by RunByName
	// from the experiment's row.
	render func(w io.Writer, r *Result)
}

// WriteText renders the experiment's text report (headers and tables,
// exactly as the paper presents them) to w.
func (r *Result) WriteText(w io.Writer) {
	if r.render != nil {
		r.render(w, r)
		return
	}
	renderNormTable(w, r)
}

// Norm returns the normalized execution time for (app, system).
func (r *Result) Norm(app, system string) float64 {
	if m := r.Runs[app]; m != nil {
		if run := m[system]; run != nil {
			return run.Norm
		}
	}
	return 0
}

// MeanNorm averages a system's normalized time over all apps.
func (r *Result) MeanNorm(system string) float64 {
	var sum float64
	var n int
	for _, app := range r.AppOrder {
		if v := r.Norm(app, system); v > 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// systemRun is one simulation of an experiment: a system spec under
// one environment.
type systemRun struct {
	spec dsm.Spec
	env  env
}

// name is the run's report label: the system name plus the
// environment's suffix ("MigRep-Slow", "CC-NUMA@ring").
func (s systemRun) name() string { return s.spec.Name + s.env.suffix }

// renderNormTable prints a normalized-execution-time table: one row per
// app, one column per system, plus the mean row the paper quotes.
func renderNormTable(w io.Writer, r *Result) {
	width := 10
	fmt.Fprintf(w, "%-10s", "app")
	for _, s := range r.Systems {
		fmt.Fprintf(w, " %*s", width, s)
	}
	fmt.Fprintln(w)
	for _, app := range r.AppOrder {
		fmt.Fprintf(w, "%-10s", app)
		for _, s := range r.Systems {
			fmt.Fprintf(w, " %*.3f", len(s), r.Norm(app, s))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "mean")
	for _, s := range r.Systems {
		fmt.Fprintf(w, " %*.3f", len(s), r.MeanNorm(s))
	}
	fmt.Fprintln(w)
}

// header prints an experiment banner.
func header(w io.Writer, title string) {
	fmt.Fprintln(w, strings.Repeat("=", 72))
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", 72))
}

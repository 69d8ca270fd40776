// Package harness defines and runs the paper's experiments: Figure 5
// (base comparison), Table 4 (page operations and miss counts), Figure 6
// (fast vs slow page operations), Figure 7 (4x network latency), and
// Figure 8 (R-NUMA page-cache halving with MigRep integration). Each
// experiment runs every application on its systems and normalizes
// execution time against perfect CC-NUMA.
//
// The experiments are rows of one table (experiments.go): a name, a
// title, default systems, the timing, threshold, fabric or scale
// environments they run under, and an optional report body. RunByName,
// Experiments, Query.Validate and the unknown-experiment errors all
// read that table, and RunByName writes each report once.
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
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Options configures an experiment run.
type Options struct {
	// Scale shrinks the application inputs (1 = full reproduction
	// size). Tests and benchmarks use larger values.
	Scale int

	// Seed perturbs the deterministic workload generators (0 = the
	// paper's inputs). It participates in the trace store's content
	// address, so distinct seeds are distinct cached workloads.
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

	// Parallel runs the per-application system sets concurrently using
	// this many workers (0 = serial). Simulations are deterministic and
	// independent, so this only affects wall-clock time.
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

	// Traces, when non-nil, caches generated application traces keyed
	// by (app, cpus, scale) and shares them across experiments: a run
	// of all five paper experiments generates each workload once
	// instead of once per experiment. Traces are read-only during
	// replay, so sharing is safe even across Parallel workers.
	Traces *TraceCache

	// Telemetry, when non-nil, attaches a telemetry.Collector to every
	// non-baseline run: windowed time series always, the page-operation
	// timeline when TelemetryOptions.Timeline is set. Collectors hang
	// off each Run; Result.WriteTelemetry renders them as artifacts.
	// Collection is observational — reported statistics are
	// byte-identical with or without it.
	Telemetry *TelemetryOptions

	// Progress, when non-nil, receives one line per completed
	// simulation with its wall-clock time, and one per generated trace
	// with its size and footprint. It has its own writer, so it can
	// stream to stderr while the report goes to stdout.
	Progress io.Writer

	// Out receives the rendered report (required).
	Out io.Writer

	// ctx cancels a run between simulations; set by RunByNameContext
	// so long-running sweeps scheduled by a server can be abandoned
	// when the server drains. nil means "never cancelled".
	ctx context.Context
}

// ctxErr reports the cancellation state of the run's context.
func (o Options) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	return o.ctx.Err()
}

func (o Options) norm() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Out == nil {
		panic("harness: Options.Out is required")
	}
	return o
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
	Stats  *stats.Sim
	// Norm is execution time normalized to perfect CC-NUMA on the same
	// application.
	Norm float64
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
	// Traces content-addresses every workload the experiment replayed:
	// one entry per generated trace, carrying the on-disk store hash.
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

// runExperiment generates each app's trace once per problem scale and
// replays it on every run at that scale, after the normalization
// anchor, perfect CC-NUMA at the same scale.
func runExperiment(name string, runs []systemRun, o Options) (*Result, error) {
	list, err := o.appList()
	if err != nil {
		return nil, err
	}
	cl := config.DefaultCluster()
	if o.Fabric != "" {
		for i := range runs {
			runs[i].env.net = config.Network{Topology: o.Fabric}
		}
	}
	res := &Result{Name: name, Runs: map[string]map[string]*Run{}, Scale: o.Scale}
	var scales []int
	for _, s := range runs {
		res.Systems = append(res.Systems, s.name())
		if sc := s.env.scale; sc != 0 && !slices.Contains(scales, sc) {
			scales = append(scales, sc)
		}
	}
	if len(scales) > 0 {
		res.Scale, res.Scales = 0, scales
	} else {
		scales = []int{o.Scale}
	}

	for _, sc := range scales {
		var group []systemRun
		for _, s := range runs {
			if s.env.scale == 0 || s.env.scale == sc {
				group = append(group, s)
			}
		}
		for _, app := range list {
			if err := o.ctxErr(); err != nil {
				return nil, fmt.Errorf("harness: %s cancelled: %w", name, err)
			}
			params := apps.Params{CPUs: cl.TotalCPUs(), Scale: sc, Seed: o.Seed}
			genStart := time.Now()
			tr, ref, err := o.Traces.Trace(app, params)
			if err != nil {
				return nil, fmt.Errorf("harness: generating %s: %w", app.Name, err)
			}
			res.Traces = append(res.Traces, ref)
			if o.Progress != nil {
				fmt.Fprintf(o.Progress, "# trace %s scale %d ready in %.2fs (%d ops, %.1f MB footprint)\n",
					app.Name, sc, time.Since(genStart).Seconds(), tr.Ops(), float64(tr.Footprint)/(1<<20))
			}
			// all[0] is the normalization anchor, dsm.RunBaseline; its
			// entry only names it in progress lines and errors.
			all := append([]systemRun{{spec: dsm.PerfectCCNUMA()}}, group...)
			sims := make([]*stats.Sim, len(all))
			cols := make([]*telemetry.Collector, len(all))
			if err := forEach(o.ctx, o.Slots, all, o.Parallel, func(i int, s systemRun) error {
				ro := dsm.RunOptions{Audit: o.Audit}
				if i > 0 {
					cols[i] = o.Telemetry.Collector()
					ro.Telemetry = cols[i]
				}
				runStart := time.Now()
				var sim *stats.Sim
				var err error
				if i == 0 {
					sim, err = dsm.RunBaseline(tr, cl, ro)
				} else {
					scl := cl
					scl.Net = s.env.net
					sim, err = dsm.RunWithOptions(tr, s.spec, scl, s.env.tm, s.env.th, ro)
				}
				if err != nil {
					return fmt.Errorf("harness: %s on %s: %w", app.Name, s.name(), err)
				}
				if o.Progress != nil {
					fmt.Fprintf(o.Progress, "# run %s/%s/%s done in %.2fs\n",
						name, app.Name, s.name(), time.Since(runStart).Seconds())
				}
				sims[i] = sim
				return nil
			}); err != nil {
				return nil, err
			}
			base := sims[0]
			if res.Runs[app.Name] == nil {
				res.AppOrder = append(res.AppOrder, app.Name)
				res.Runs[app.Name] = map[string]*Run{}
			}
			for i, s := range group {
				sim := sims[i+1]
				res.Runs[app.Name][s.name()] = &Run{
					App: app.Name, System: s.spec.Name, Label: s.name(), Fabric: s.env.net.Kind(),
					Stats: sim, Norm: sim.Normalized(base), Telemetry: cols[i+1],
				}
			}
		}
	}
	return res, nil
}

// forEach runs f over items, optionally with a worker pool, each call
// holding one of slots (when non-nil) while it runs. A non-nil ctx
// stops dispatching new items once cancelled, also while waiting for a
// slot; items already running complete normally. Dispatching also
// stops once an item has failed, and the first error in item order is
// returned.
func forEach(ctx context.Context, slots *Slots, items []systemRun, workers int, f func(int, systemRun) error) error {
	start := func() error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return slots.acquire(ctx)
	}
	if workers <= 1 {
		for i, it := range items {
			if err := start(); err != nil {
				return err
			}
			err := f(i, it)
			slots.release()
			if err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	sem := make(chan struct{}, workers)
	errs := make([]error, len(items))
	for i, it := range items {
		sem <- struct{}{}
		if err := start(); err != nil {
			errs[i] = err
			break
		}
		// A failing item sets failed before it frees its worker and its
		// slot, so a dispatcher that reuses either sees the failure.
		if failed.Load() {
			slots.release()
			break
		}
		wg.Add(1)
		go func(i int, it systemRun) {
			defer wg.Done()
			defer func() { <-sem }()
			defer slots.release()
			if errs[i] = f(i, it); errs[i] != nil {
				failed.Store(true)
			}
		}(i, it)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// renderNormTable prints a normalized-execution-time table: one row per
// app, one column per system, plus the mean row the paper quotes.
func renderNormTable(w io.Writer, r *Result) {
	width := 10
	fmt.Fprintf(w, "%-10s", "app")
	for _, s := range r.Systems {
		fmt.Fprintf(w, " %*s", width+len(s)-len(s), s)
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

// SortedApps returns the result's applications sorted by name (test
// helper).
func (r *Result) SortedApps() []string {
	out := append([]string(nil), r.AppOrder...)
	sort.Strings(out)
	return out
}

// header prints an experiment banner.
func header(w io.Writer, title string) {
	fmt.Fprintln(w, strings.Repeat("=", 72))
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", 72))
}

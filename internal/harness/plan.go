package harness

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// A job is one simulation: an application's trace replayed on one
// memory system under one timing model, thresholds and cluster. Equal
// jobs are one simulation, however many records read it.
type job struct {
	app    string
	params apps.Params
	// anchor is dsm.RunBaseline; spec, tm, th and cl.Net stay zero.
	anchor bool
	spec   dsm.Spec
	tm     config.Timing
	th     config.Thresholds
	// cl.Net.Topology is resolved: "" and "crossbar" are one fabric.
	cl config.Cluster
}

// task is a job in the run list with the records that read it and its
// trace's anchor (nil when unnormalized). name is the first record's
// experiment/app/label.
type task struct {
	job
	info apps.Info
	name string
	runs []*Run
	base *task

	sim *stats.Sim
	col *telemetry.Collector
}

// plan is a run list: one task per distinct job, in the order the
// results' records first ask for them.
type plan struct {
	o       Options
	results []*Result
	tasks   []*task
	byJob   map[job]*task
	// runs counts the simulations asked for, merged or not.
	runs int
}

func newPlan(o Options) *plan { return &plan{o: o, byJob: map[job]*task{}} }

// planQuery validates q and plans every experiment it names.
func planQuery(q Query, o Options) (*plan, error) {
	q = q.Normalize()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := newPlan(q.Options(o))
	for _, name := range q.ExperimentNames() {
		e, _ := lookup(name) // Validate has resolved every name
		if err := p.experiment(e, true); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// add returns the task of j, added unless an equal job is there.
func (p *plan) add(info apps.Info, j job, name string, base *task) *task {
	p.runs++
	if t := p.byJob[j]; t != nil {
		return t
	}
	t := &task{job: j, info: info, name: name, base: base}
	p.byJob[j] = t
	p.tasks = append(p.tasks, t)
	return t
}

// experiment plans a row of the experiment table: per problem scale
// and application, the anchor (when anchored) and every run. It adds
// the row's Result, which execute fills.
func (p *plan) experiment(e *experiment, anchored bool) error {
	o := p.o
	list, err := o.appList()
	if err != nil {
		return err
	}
	envs := e.environments(o.Scales)
	runs, systems, err := e.runs(o, envs)
	if err != nil {
		return err
	}
	res := &Result{Name: e.name, Runs: map[string]map[string]*Run{}, Scale: o.Scale}
	scales := []int{o.Scale}
	if _, sweep := e.sweeps(); sweep {
		res.Scale, res.Scales, scales = 0, o.Scales, o.Scales
	}
	for _, s := range runs {
		res.Systems = append(res.Systems, s.name())
	}

	cl := config.DefaultCluster()
	for _, sc := range scales {
		for _, app := range list {
			params := apps.Params{CPUs: cl.TotalCPUs(), Scale: sc, Seed: o.Seed}
			res.Traces = append(res.Traces, telemetry.TraceRef{App: app.Name, CPUs: params.CPUs, Scale: sc, Seed: o.Seed})
			var base *task
			if anchored {
				base = p.add(app, job{app: app.Name, params: params, anchor: true, cl: cl},
					e.name+"/"+app.Name+"/"+dsm.PerfectCCNUMA().Name, nil)
			}
			if res.Runs[app.Name] == nil {
				res.AppOrder = append(res.AppOrder, app.Name)
				res.Runs[app.Name] = map[string]*Run{}
			}
			for _, s := range runs {
				if s.env.scale != 0 && s.env.scale != sc {
					continue
				}
				scl := cl
				scl.Net = s.env.net
				if o.Fabric != "" {
					scl.Net = config.Network{Topology: o.Fabric}
				}
				scl.Net.Topology = scl.Net.Kind()
				t := p.add(app, job{app: app.Name, params: params, spec: s.spec, tm: s.env.tm, th: s.env.th, cl: scl},
					e.name+"/"+app.Name+"/"+s.name(), base)
				run := &Run{App: app.Name, System: s.spec.Name, Label: s.name(), Fabric: scl.Net.Topology}
				res.Runs[app.Name][s.name()] = run
				t.runs = append(t.runs, run)
			}
		}
	}

	title, body := e.title, e.body
	if len(o.Systems) > 0 && e.overrideTitle != "" {
		title, body = e.overrideTitle, nil
	}
	res.render = func(w io.Writer, r *Result) {
		header(w, title)
		if body == nil {
			renderNormTable(w, r)
			return
		}
		body(w, r, systems, envs)
	}
	p.results = append(p.results, res)
	return nil
}

// execute runs every task on one pool (see forEach) of o.Parallel
// workers and o.Slots, then fills every record's Run.
func (p *plan) execute(ctx context.Context) ([]*Result, error) {
	o := p.o
	if o.Traces == nil {
		o.Traces = NewTraceCache()
	}
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, "# plan: %d runs, %d simulations\n", p.runs, len(p.tasks))
	}
	if err := forEach(ctx, o.Slots, p.tasks, o.Parallel, func(_ int, t *task) error {
		return t.run(o)
	}); err != nil {
		return nil, err
	}
	for _, t := range p.tasks {
		for _, run := range t.runs {
			run.Stats, run.Telemetry = t.sim, t.col
			if t.base != nil {
				run.Base, run.Norm = t.base.sim, t.sim.Normalized(t.base.sim)
			}
		}
	}
	return p.results, nil
}

// RunQuery validates q and runs every experiment it names as one run
// list, each distinct simulation once, with the execution knobs of o
// (see Query.Options). It returns one Result per experiment, in
// q.ExperimentNames order, and writes no report. Cancelling ctx starts
// no further simulation and returns the context's error.
func RunQuery(ctx context.Context, q Query, o Options) ([]*Result, error) {
	p, err := planQuery(q, o)
	if err != nil {
		return nil, err
	}
	return p.execute(ctx)
}

// RunSystems runs o.Systems, resolved under thresholds th, on every
// o.Apps application under timing tm as one run list, into a Result
// named name. With normalize each application also runs the anchor,
// and each Run carries Base and Norm. It writes no report; cancelling
// ctx stops it as it does RunQuery.
func RunSystems(ctx context.Context, name string, tm config.Timing, th config.Thresholds, normalize bool, o Options) (*Result, error) {
	if err := checkDistinct(o.Apps, o.Systems, nil); err != nil {
		return nil, err
	}
	o.Scale = max(o.Scale, 1)
	e := &experiment{name: name, title: name, envs: func([]int) []env { return []env{{tm: tm, th: th}} }}
	p := newPlan(o)
	if err := p.experiment(e, normalize); err != nil {
		return nil, err
	}
	rs, err := p.execute(ctx)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// run fetches the task's trace and simulates it. The anchor, its
// trace's first task, reports the trace and runs through
// dsm.RunBaseline without a collector.
func (t *task) run(o Options) error {
	start := time.Now()
	tr, err := o.Traces.Trace(t.info, t.params)
	if err != nil {
		return fmt.Errorf("harness: generating %s: %w", t.app, err)
	}
	if o.Progress != nil && t.anchor {
		fmt.Fprintf(o.Progress, "# trace %s scale %d ready in %.2fs (%d ops, %.1f MB footprint)\n",
			t.app, t.params.Scale, time.Since(start).Seconds(), tr.Ops(), float64(tr.Footprint)/(1<<20))
	}
	runStart := time.Now()
	if t.anchor {
		t.sim, err = dsm.RunBaseline(tr, t.cl, dsm.RunOptions{Audit: o.Audit})
	} else {
		if o.Telemetry != nil {
			t.col = telemetry.New(*o.Telemetry)
		}
		t.sim, err = dsm.RunWithOptions(tr, t.spec, t.cl, t.tm, t.th, dsm.RunOptions{Audit: o.Audit, Telemetry: t.col})
	}
	if err != nil {
		return fmt.Errorf("harness: %s: %w", t.name, err)
	}
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, "# run %s done in %.2fs\n", t.name, time.Since(runStart).Seconds())
	}
	return nil
}

// forEach runs f over items on a pool of workers (at least one), each
// call holding one of slots (when non-nil) while it runs. Items are
// dispatched in order, so one worker runs them one after another.
// Cancelling ctx stops dispatching new items, also while waiting for a
// slot; items already running complete normally.
// Dispatching also stops once an item has failed, and the first error
// in item order is returned.
func forEach[T any](ctx context.Context, slots *Slots, items []T, workers int, f func(int, T) error) error {
	workers = max(workers, 1)
	var wg sync.WaitGroup
	var failed atomic.Bool
	sem := make(chan struct{}, workers)
	errs := make([]error, len(items))
	for i, it := range items {
		sem <- struct{}{}
		if err := slots.acquire(ctx); err != nil {
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
		go func(i int, it T) {
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

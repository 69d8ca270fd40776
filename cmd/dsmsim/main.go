// Command dsmsim runs one application on one or more simulated DSM
// systems and prints the collected statistics.
//
// Usage:
//
//	dsmsim -app lu -system rnuma [-scale 4] [-slow] [-netscale 4] [-audit=false]
//	dsmsim -app lu -systems ccnuma,migrep,migrep-contend -normalize
//	dsmsim -app radix -tracestore .tracestore   # reuse traces across runs
//	dsmsim -app migratory -system migrep -telemetry out/ -timeline
//	dsmsim -list
//
// Systems resolve through the dsm registry (see -list for names):
// perfect, ccnuma, rep, mig, migrep, rnuma, rnuma-inf, rnuma-half,
// rnuma-half-migrep, scoma, migrep-contend, and anything registered
// since.
//
// dsmsim is a client of internal/harness, as cmd/experiments is: both
// declare their shared flags with harness.NewFlags, fetch traces from a
// harness.TraceCache over the optional -tracestore store, and write
// -telemetry artifacts with Result.WriteTelemetry, here as
// dsmsim_<app>_<system>.* per system plus dsmsim.manifest.json.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// main delegates to run, which parses its flags into the given set and
// prints to stdout, so tests can drive the command in-process. os.Exit
// lives only here.
func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		appName  = fs.String("app", "lu", "application (see -list)")
		system   = fs.String("system", "ccnuma", "system to simulate (see -list)")
		systems  = fs.String("systems", "", "comma-separated systems to simulate in sequence (overrides -system)")
		slow     = fs.Bool("slow", false, "use slow page-operation support")
		netScale = fs.Int64("netscale", 1, "network latency multiplier")
		baseline = fs.Bool("normalize", false, "also run perfect CC-NUMA and print normalized time")
		perNode  = fs.Bool("pernode", false, "print the per-node statistics table")
		list     = fs.Bool("list", false, "list applications and systems, then exit")
		shared   = harness.NewFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "applications:")
		for _, i := range apps.All() {
			fmt.Fprintf(stdout, "  %-10s %s (default input: %s)\n", i.Name, i.Description, i.Input)
		}
		fmt.Fprintln(stdout, "systems:")
		for _, s := range dsm.Systems() {
			fmt.Fprintf(stdout, "  %-18s %s\n", s.Name, s.Description)
		}
		return nil
	}

	if *netScale < 1 {
		return fmt.Errorf("dsmsim: -netscale %d: the multiplier must be at least 1", *netScale)
	}
	tm, th := config.Default(), config.DefaultThresholds()
	if *slow {
		tm, th = config.Slow(), config.SlowThresholds()
	}
	tm = tm.ScaleNetwork(*netScale)
	cl := config.DefaultCluster()

	app, err := apps.ByName(*appName)
	if err != nil {
		return err
	}
	names := []string{*system}
	if *systems != "" {
		names = strings.Split(*systems, ",")
	}
	if err := harness.CheckDistinct(nil, names, nil); err != nil {
		return err
	}
	specs, err := dsm.ResolveSpecs(names, th)
	if err != nil {
		return err
	}
	o, err := shared.Options(stdout)
	if err != nil {
		return err
	}

	tr, ref, err := o.Traces.Trace(app, apps.Params{CPUs: cl.TotalCPUs(), Scale: o.Scale})
	if err != nil {
		return err
	}
	src := "generated"
	if o.Traces.Stats().DiskHits > 0 {
		src = "loaded from " + shared.TraceStore
	}
	fmt.Fprintf(stdout, "trace: %d ops, %.2f MB shared footprint, %d barriers, %d locks (%s)\n",
		tr.Ops(), float64(tr.Footprint)/(1<<20), tr.Barriers, tr.Locks, src)

	// The normalization baseline is system-independent: run it once.
	// dsm.RunBaseline keeps the base timing and thresholds under -slow
	// and -netscale, like every other normalized number.
	var base *stats.Sim
	if *baseline {
		base, err = dsm.RunBaseline(tr, cl, dsm.RunOptions{Audit: o.Audit})
		if err != nil {
			return err
		}
	}

	// Every run is recorded in a harness.Result, whose WriteTelemetry
	// renders the artifacts and the manifest.
	res := &harness.Result{Name: "dsmsim", AppOrder: []string{app.Name}, Scale: o.Scale,
		Traces: []telemetry.TraceRef{ref}, Runs: map[string]map[string]*harness.Run{app.Name: {}}}
	start := time.Now()
	for _, spec := range specs {
		ro := dsm.RunOptions{Audit: o.Audit, Telemetry: o.Telemetry.Collector()}
		runStart := time.Now()
		sim, err := dsm.RunWithOptions(tr, spec, cl, tm, th, ro)
		if err != nil {
			return err
		}
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "# run %s/%s done in %.2fs\n",
				app.Name, spec.Name, time.Since(runStart).Seconds())
		}
		fmt.Fprint(stdout, sim.Summary())
		if *perNode {
			fmt.Fprint(stdout, sim.PerNodeReport())
		}
		if base != nil {
			fmt.Fprintf(stdout, "  normalized:     %.3f vs perfect CC-NUMA (%d cycles)\n",
				sim.Normalized(base), base.ExecCycles)
		}
		res.Systems = append(res.Systems, spec.Name)
		res.Runs[app.Name][spec.Name] = &harness.Run{
			App: app.Name, System: spec.Name, Label: spec.Name, Fabric: cl.Net.Kind(),
			Stats: sim, Telemetry: ro.Telemetry,
		}
	}
	if o.Telemetry == nil {
		return nil
	}
	return res.WriteTelemetry(shared.Telemetry, time.Since(start))
}

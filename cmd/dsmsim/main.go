// Command dsmsim runs one application on one or more simulated DSM
// systems and prints the collected statistics.
//
// Usage:
//
//	dsmsim -app lu -system rnuma [-scale 4] [-slow] [-netscale 4] [-audit=false]
//	dsmsim -app lu -systems ccnuma,migrep,migrep-contend -normalize
//	dsmsim -app migratory -system migrep -telemetry out/ -timeline
//	dsmsim -list
//
// Systems resolve through the dsm registry (see -list for names):
// perfect, ccnuma, rep, mig, migrep, rnuma, rnuma-inf, rnuma-half,
// rnuma-half-migrep, scoma, migrep-contend, and anything registered
// since.
//
// dsmsim is a client of internal/harness, as cmd/experiments is: both
// declare their shared flags with harness.NewFlags, run on the harness
// executor (here harness.RunSystems) with traces from a
// harness.TraceCache, and write -telemetry artifacts with
// Result.WriteTelemetry, here as dsmsim_<app>_<system>.* per system
// plus dsmsim.manifest.json.
package main

import (
	"context"
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

	app, err := apps.ByName(*appName)
	if err != nil {
		return err
	}
	names := []string{*system}
	if *systems != "" {
		names = strings.Split(*systems, ",")
	}
	o := shared.Options(stdout)
	o.Apps, o.Systems = []string{app.Name}, names

	// The anchor, dsm.RunBaseline, keeps the base timing and thresholds
	// under -slow and -netscale, like every other normalized number.
	start := time.Now()
	res, err := harness.RunSystems(context.Background(), "dsmsim", tm, th, *baseline, o)
	if err != nil {
		return err
	}

	// A cache hit: the runs fetched the trace.
	tr, err := o.Traces.Trace(app, apps.Params{CPUs: config.DefaultCluster().TotalCPUs(), Scale: o.Scale})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace: %d ops, %.2f MB shared footprint, %d barriers, %d locks (generated)\n",
		tr.Ops(), float64(tr.Footprint)/(1<<20), tr.Barriers, tr.Locks)
	for _, label := range res.Systems {
		run := res.Runs[app.Name][label]
		fmt.Fprint(stdout, run.Stats.Summary())
		if *perNode {
			fmt.Fprint(stdout, run.Stats.PerNodeReport())
		}
		if run.Base != nil {
			fmt.Fprintf(stdout, "  normalized:     %.3f vs perfect CC-NUMA (%d cycles)\n",
				run.Norm, run.Base.ExecCycles)
		}
	}
	if o.Telemetry == nil {
		return nil
	}
	return res.WriteTelemetry(shared.Telemetry, time.Since(start))
}

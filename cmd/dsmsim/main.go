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
// -tracestore names a directory of the content-addressed on-disk trace
// store (internal/trace/store): the workload is loaded from disk when
// present and saved after generation otherwise. It defaults to off so
// generation timings stay cold.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	var (
		appName  = flag.String("app", "lu", "application (see -list)")
		system   = flag.String("system", "ccnuma", "system to simulate (see -list)")
		systems  = flag.String("systems", "", "comma-separated systems to simulate in sequence (overrides -system)")
		scale    = flag.Int("scale", 1, "problem-size divisor (1 = full size)")
		slow     = flag.Bool("slow", false, "use slow page-operation support")
		netScale = flag.Int64("netscale", 1, "network latency multiplier")
		audit    = flag.Bool("audit", true, "run with event-time and traffic-conservation audits (internal/audit)")
		baseline = flag.Bool("normalize", false, "also run perfect CC-NUMA and print normalized time")
		perNode  = flag.Bool("pernode", false, "print the per-node statistics table")
		list     = flag.Bool("list", false, "list applications and systems, then exit")
		tsDir    = flag.String("tracestore", "", "directory of the on-disk trace store (empty = off; generation timings stay cold)")
		telDir   = flag.String("telemetry", "", "collect time-resolved telemetry and write windowed-series CSVs and a run manifest into this directory")
		timeline = flag.Bool("timeline", false, "with -telemetry, also record the page-operation timeline (Chrome trace JSON + CSV)")
		window   = flag.Int64("window", 0, "telemetry window width in simulated cycles (0 = default, 2^20)")
		progress = flag.Bool("progress", false, "log per-run completion with wall time to stderr")
	)
	flag.Parse()

	if *list {
		fmt.Println("applications:")
		for _, i := range apps.All() {
			fmt.Printf("  %-10s %s (default input: %s)\n", i.Name, i.Description, i.Input)
		}
		fmt.Println("systems:")
		for _, s := range dsm.Systems() {
			fmt.Printf("  %-18s %s\n", s.Name, s.Description)
		}
		return
	}

	tm, th := config.Default(), config.DefaultThresholds()
	if *slow {
		tm, th = config.Slow(), config.SlowThresholds()
	}
	if *netScale > 1 {
		tm = tm.ScaleNetwork(*netScale)
	}
	cl := config.DefaultCluster()

	app, err := apps.ByName(*appName)
	if err != nil {
		fail(err)
	}
	names := []string{*system}
	if *systems != "" {
		names = strings.Split(*systems, ",")
	}
	specs, err := dsm.ResolveSpecs(names, th)
	if err != nil {
		fail(err)
	}

	params := apps.Params{CPUs: cl.TotalCPUs(), Scale: *scale}
	var ts *store.Store // nil disables persistence
	if *tsDir != "" {
		if ts, err = store.Open(*tsDir); err != nil {
			fail(err)
		}
	}
	key := store.Key{App: app.Name, CPUs: params.CPUs, Scale: params.Scale, Seed: params.Seed}
	tr, hit, err := ts.LoadOrGenerate(key,
		func() (*trace.Trace, error) { return app.Generate(params) })
	if err != nil {
		fail(err)
	}
	src := "generated"
	if hit {
		src = "loaded from " + *tsDir
	}
	fmt.Printf("trace: %d ops, %.2f MB shared footprint, %d barriers, %d locks (%s)\n",
		tr.Ops(), float64(tr.Footprint)/(1<<20), tr.Barriers, tr.Locks, src)

	// The normalization baseline is system-independent: run it once.
	// dsm.RunBaseline keeps the base timing and thresholds under -slow
	// and -netscale, like every other normalized number.
	var base *stats.Sim
	if *baseline {
		base, err = dsm.RunBaseline(tr, cl, dsm.RunOptions{Audit: *audit})
		if err != nil {
			fail(err)
		}
	}

	start := time.Now()
	for _, spec := range specs {
		ro := dsm.RunOptions{Audit: *audit}
		var col *telemetry.Collector
		if *telDir != "" {
			col = telemetry.New(telemetry.Config{Window: *window, Timeline: *timeline})
			ro.Telemetry = col
		}
		runStart := time.Now()
		sim, err := dsm.RunWithOptions(tr, spec, cl, tm, th, ro)
		if err != nil {
			fail(err)
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "# run %s/%s done in %.2fs\n",
				app.Name, spec.Name, time.Since(runStart).Seconds())
		}
		fmt.Print(sim.Summary())
		if *perNode {
			fmt.Print(sim.PerNodeReport())
		}
		if base != nil {
			fmt.Printf("  normalized:     %.3f vs perfect CC-NUMA (%d cycles)\n",
				sim.Normalized(base), base.ExecCycles)
		}
		if col != nil {
			if err := writeTelemetry(*telDir, app.Name, spec.Name, col); err != nil {
				fail(err)
			}
		}
	}
	if *telDir != "" {
		man := telemetry.NewManifestAt(time.Now())
		man.App = app.Name
		man.Systems = names
		man.Fabric = cl.Net.Kind()
		man.Scale = *scale
		man.Seed = params.Seed
		man.Traces = []telemetry.TraceRef{{
			App: key.App, CPUs: key.CPUs, Scale: key.Scale, Seed: key.Seed, Hash: key.Filename(),
		}}
		man.WindowCycles = *window
		if man.WindowCycles <= 0 {
			man.WindowCycles = telemetry.DefaultWindow
		}
		man.Timeline = *timeline
		man.WallSeconds = time.Since(start).Seconds()
		path := filepath.Join(*telDir, "dsmsim_"+app.Name+".manifest.json")
		if err := man.WriteFile(path); err != nil {
			fail(err)
		}
	}
}

// writeTelemetry renders one run's collector into dir as
// dsmsim_<app>_<system>.windows.csv plus, when the timeline was
// recorded, .timeline.json (Chrome trace event format) and
// .timeline.csv.
func writeTelemetry(dir, app, system string, col *telemetry.Collector) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, "dsmsim_"+app+"_"+system)
	write := func(path string, render func(w *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(stem+".windows.csv", func(f *os.File) error { return col.WriteWindowsCSV(f) }); err != nil {
		return err
	}
	if !col.TimelineEnabled() {
		return nil
	}
	if err := write(stem+".timeline.json", func(f *os.File) error { return col.WriteChromeTrace(f) }); err != nil {
		return err
	}
	return write(stem+".timeline.csv", func(f *os.File) error { return col.WriteTimelineCSV(f) })
}

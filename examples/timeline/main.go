// Timeline runs the migratory microbenchmark on MigRep over a ring
// fabric with time-resolved telemetry enabled and shows what the
// end-of-run aggregates cannot: when the page activity happens. It
// prints a windowed table of the hottest links' bytes over simulated
// time next to the page-operation counts in each window, then writes
// the full page-operation timeline as Chrome trace-event JSON —
// loadable at https://ui.perfetto.dev or chrome://tracing — plus the
// windowed series as CSV.
//
//	go run ./examples/timeline [-scale 4] [-hot 3] [-window 1048576] [-o out/]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	scale := flag.Int("scale", 4, "problem-size divisor")
	hot := flag.Int("hot", 3, "hot links to tabulate")
	window := flag.Int64("window", 0, "window width in simulated cycles (0 = default, 2^20)")
	outDir := flag.String("o", "timeline-out", "directory for the exported artifacts")
	flag.Parse()

	cl := config.DefaultCluster()
	cl.Net = config.Network{Topology: config.TopoRing}
	tm, th := config.Default(), config.DefaultThresholds()

	app, err := apps.ByName("migratory")
	if err != nil {
		log.Fatal(err)
	}
	tr, err := app.Generate(apps.Params{CPUs: cl.TotalCPUs(), Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}

	col := telemetry.New(telemetry.Config{Window: *window, Timeline: true})
	spec, err := dsm.ResolveSpecs([]string{"migrep"}, th)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := dsm.RunWithOptions(tr, spec[0], cl, tm, th, dsm.RunOptions{Telemetry: col})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("migratory on migrep over %s: %d cycles, %d timeline events\n\n",
		cl.Net.Kind(), sim.ExecCycles, len(col.Events()))

	// Windowed hot-link table: the ring's loaded links emerge and fade
	// as the migratory pages' homes move around the cluster.
	links := col.HotLinks(*hot)
	fmt.Printf("%-8s", "window")
	for _, id := range links {
		fmt.Printf(" %12s", col.LinkName(id))
	}
	fmt.Printf(" %9s %9s\n", "migrations", "pageops")
	for w := 0; w < col.Windows(); w++ {
		fmt.Printf("%-8d", w)
		for _, id := range links {
			fmt.Printf(" %10d KB", col.LinkBytesWindow(id, w)/1024)
		}
		var ops int64
		for k := 0; k < stats.NumPageOps; k++ {
			ops += col.PageOpWindow(stats.PageOp(k), w)
		}
		fmt.Printf(" %9d %9d\n", col.PageOpWindow(stats.Migration, w), ops)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	tracePath := filepath.Join(*outDir, "timeline.json")
	f, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := col.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	csvPath := filepath.Join(*outDir, "windows.csv")
	f, err = os.Create(csvPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := col.WriteWindowsCSV(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	// Base names only, so stdout does not depend on -o and CI can diff
	// it against testdata/stdout.golden.
	fmt.Printf("\nwrote %s (open in Perfetto) and %s under -o\n", filepath.Base(tracePath), filepath.Base(csvPath))
}

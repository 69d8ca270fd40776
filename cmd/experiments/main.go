// Command experiments regenerates the paper's tables and figures, plus
// the topology-sweep extension.
//
// Usage:
//
//	experiments                             # run everything at full scale
//	experiments -experiment fig5            # one experiment
//	experiments -experiment fig5 -systems ccnuma,migrep-contend,rnuma
//	experiments -experiment toposweep       # Figure 5 across interconnect fabrics
//	experiments -experiment scalesweep -scales 8,16,32,64   # Figure 5 across problem scales
//	experiments -scale 4 -parallel 8        # smaller inputs, concurrent runs
//	experiments -json results.json -csv results.csv
//	experiments -tracestore .tracestore     # persist generated traces on disk
//	experiments -experiment params          # print the encoded Tables 2 and 3
//	experiments -list-systems               # print the memory-system registry
//	experiments -cpuprofile cpu.out -memprofile mem.out   # ad-hoc profiling
//	experiments -telemetry out/ -timeline   # windowed series + Perfetto timelines
//	experiments -progress                   # per-run completion lines on stderr
//
// Systems resolve through the dsm registry, so -systems accepts any
// registered name — including systems that postdate the paper, such as
// the contention-aware "migrep-contend".
//
// -tracestore names a directory for the content-addressed on-disk
// trace store (internal/trace/store): generated workloads are written
// there and later runs materialize them from disk instead of
// regenerating. It defaults to off so cold-generation timings stay
// measurable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/harness"
)

func printParams() {
	fmt.Println("Table 2: applications and input parameters")
	for _, i := range apps.Paper() {
		fmt.Printf("  %-10s %-48s %s\n", i.Name, i.Description, i.Input)
	}
	fmt.Println()
	fmt.Println("Table 3: base system cost assumptions (600 MHz processor cycles)")
	t := config.Default()
	rows := [][2]string{
		{"network latency", fmt.Sprint(t.NetworkLatency)},
		{"local miss latency", fmt.Sprint(t.LocalMiss)},
		{"round-trip remote miss latency", fmt.Sprint(t.RemoteMiss)},
		{"soft trap", fmt.Sprint(t.SoftTrap)},
		{"TLB shootdown", fmt.Sprint(t.TLBShootdown)},
		{"alloc/replacement or R-NUMA relocation", fmt.Sprintf("%d~%d", t.PageOpCost(0), t.PageOpCost(config.BlocksPerPage))},
		{"page invalidation and data gathering", fmt.Sprintf("%d~%d", t.GatherCost(0), t.GatherCost(config.BlocksPerPage))},
		{"page copying", fmt.Sprintf("%d~%d", t.CopyCost(0), t.CopyCost(config.BlocksPerPage))},
	}
	for _, r := range rows {
		fmt.Printf("  %-42s %s\n", r[0], r[1])
	}
	fmt.Println()
	fmt.Println("Thresholds: MigRep 800 misses (reset 32000), R-NUMA 32 misses;")
	fmt.Println("slow systems: 1200 and 64.")
}

func printSystems() {
	fmt.Println("registered memory systems (dsm registry):")
	for _, s := range dsm.Systems() {
		fmt.Printf("  %-18s %s\n", s.Name, s.Description)
	}
}

// main delegates to run, which parses its flags into the given set, so
// that run's defers — in particular stopping and flushing the profiles
// — execute on every exit path, including errors. os.Exit lives only
// here.
func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string) error {
	var (
		exp         = fs.String("experiment", "all", "experiment: fig5, table4, fig6, fig7, fig8, toposweep, scalesweep, params, all")
		seed        = fs.Uint64("seed", 0, "workload-generator seed (0 = the paper's inputs)")
		fabric      = fs.String("fabric", "", "interconnect override for every run: crossbar, ring, mesh, fattree (empty = experiment default)")
		scalesFlag  = fs.String("scales", "", "comma-separated scale ladder for -experiment scalesweep (default 8,16,32,64)")
		appsFlag    = fs.String("apps", "", "comma-separated app subset (default: the paper's seven)")
		systemsFlag = fs.String("systems", "", "comma-separated system override from the dsm registry (see -list-systems)")
		parallel    = fs.Int("parallel", runtime.NumCPU(), "concurrent simulations per app (0 = serial)")
		verbose     = fs.Bool("verbose", false, "print per-run progress")
		csvPath     = fs.String("csv", "", "also write machine-readable CSV rows to this file")
		jsonPath    = fs.String("json", "", "also write the structured records as JSON to this file")
		listSystems = fs.Bool("list-systems", false, "list the registered memory systems and exit")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = fs.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
		shared      = harness.NewFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Registered after the CPU-profile defers, so the heap snapshot
		// is taken (and the file written) before StopCPUProfile flushes;
		// a failure here must not lose the run's results, so it only
		// warns.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	if *listSystems {
		printSystems()
		return nil
	}
	if *exp == "params" {
		printParams()
		return nil
	}

	// The trace cache shares each workload across experiments.
	o, err := shared.Options(os.Stdout)
	if err != nil {
		return err
	}
	o.Seed = *seed
	o.Fabric = *fabric
	o.Parallel = *parallel
	o.Verbose = *verbose
	if *appsFlag != "" {
		o.Apps = strings.Split(*appsFlag, ",")
	}
	if *systemsFlag != "" {
		o.Systems = strings.Split(*systemsFlag, ",")
	}
	if *scalesFlag != "" {
		for _, f := range strings.Split(*scalesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("experiments: bad -scales entry %q: %w", f, err)
			}
			o.Scales = append(o.Scales, n)
		}
	}

	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := harness.WriteCSVHeader(f); err != nil {
			return err
		}
		csvFile = f
	}

	names := harness.Experiments()
	if *exp != "all" {
		names = []string{*exp}
	}
	var records []harness.Record
	for _, n := range names {
		expStart := time.Now()
		r, err := harness.RunByName(n, o)
		if err != nil {
			return err
		}
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "# experiment %s done in %.2fs\n", n, time.Since(expStart).Seconds())
		}
		if o.Telemetry != nil {
			if err := r.WriteTelemetry(shared.Telemetry, time.Since(expStart)); err != nil {
				return err
			}
		}
		if csvFile != nil {
			if err := r.WriteCSVRows(csvFile); err != nil {
				return err
			}
		}
		if *jsonPath != "" {
			records = append(records, r.Records()...)
		}
		fmt.Println()
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.Progress != nil {
		s := o.Traces.Stats()
		fmt.Fprintf(o.Progress, "# tracecache: %d hits, %d coalesced, %d disk hits, %d generated\n",
			s.Hits, s.Coalesced, s.DiskHits, s.Generated)
	}
	return nil
}

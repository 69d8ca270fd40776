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
//	experiments -experiment params          # print the encoded Tables 2 and 3
//	experiments -list-systems               # print the memory-system registry
//	experiments -cpuprofile cpu.out -memprofile mem.out   # ad-hoc profiling
//	experiments -telemetry out/ -timeline   # windowed series + Perfetto timelines
//	experiments -progress                   # per-run completion lines on stderr
//
// Systems resolve through the dsm registry, so -systems accepts any
// registered name — including systems that postdate the paper, such as
// the contention-aware "migrep-contend".
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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

func printParams(w io.Writer) {
	fmt.Fprintln(w, "Table 2: applications and input parameters")
	for _, i := range apps.Paper() {
		fmt.Fprintf(w, "  %-10s %-48s %s\n", i.Name, i.Description, i.Input)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Table 3: base system cost assumptions (600 MHz processor cycles)")
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
		fmt.Fprintf(w, "  %-42s %s\n", r[0], r[1])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Thresholds: MigRep 800 misses (reset 32000), R-NUMA 32 misses;")
	fmt.Fprintln(w, "slow systems: 1200 and 64.")
}

func printSystems(w io.Writer) {
	fmt.Fprintln(w, "registered memory systems (dsm registry):")
	for _, s := range dsm.Systems() {
		fmt.Fprintf(w, "  %-18s %s\n", s.Name, s.Description)
	}
}

// main delegates to run, which parses its flags into the given set, so
// that run's defers — in particular stopping and flushing the profiles
// — execute on every exit path, including errors. os.Exit lives only
// here.
func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args into fs and writes every report to stdout. It builds
// a harness.Query from the identity flags and runs it through
// harness.RunQuery, as internal/serve does, so an invalid query fails
// before any simulation and -json writes the server's bytes.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		exp         = fs.String("experiment", "all", "experiment: "+strings.Join(harness.Experiments(), ", ")+", scalesweep (not in all), params, all")
		seed        = fs.Uint64("seed", 0, "workload-generator seed (0 = the paper's inputs)")
		fabric      = fs.String("fabric", "", "interconnect override for every run: crossbar, ring, mesh, fattree (empty = experiment default)")
		scalesFlag  = fs.String("scales", "", "comma-separated scale ladder for -experiment scalesweep (default 8,16,32,64)")
		appsFlag    = fs.String("apps", "", "comma-separated app subset (default: the paper's seven)")
		systemsFlag = fs.String("systems", "", "comma-separated system override from the dsm registry (see -list-systems)")
		parallel    = fs.Int("parallel", runtime.NumCPU(), "concurrent simulations per query (0 = serial)")
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
		printSystems(stdout)
		return nil
	}
	if *exp == "params" {
		printParams(stdout)
		return nil
	}

	// The trace cache shares each workload across experiments.
	base := shared.Options(stdout)
	base.Parallel = *parallel
	q := harness.Query{Experiment: *exp, Fabric: *fabric, Scale: base.Scale, Seed: *seed}
	if *appsFlag != "" {
		q.Apps = strings.Split(*appsFlag, ",")
	}
	if *systemsFlag != "" {
		q.Systems = strings.Split(*systemsFlag, ",")
	}
	if *scalesFlag != "" {
		for _, f := range strings.Split(*scalesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("experiments: bad -scales entry %q: %w", f, err)
			}
			q.Scales = append(q.Scales, n)
		}
	}
	if err := q.Normalize().Validate(); err != nil {
		return err
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

	start := time.Now()
	results, err := harness.RunQuery(context.Background(), q, base)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	var records []harness.Record
	for _, r := range results {
		r.WriteText(stdout)
		if base.Telemetry != nil {
			// The experiments share one run list, and its wall time.
			if err := r.WriteTelemetry(shared.Telemetry, wall); err != nil {
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
		fmt.Fprintln(stdout)
	}
	if *jsonPath != "" {
		buf, err := harness.RecordsJSON(records)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			return err
		}
	}
	if base.Progress != nil {
		s := base.Traces.Stats()
		fmt.Fprintf(base.Progress, "# tracecache: %d hits, %d coalesced, %d generated\n",
			s.Hits, s.Coalesced, s.Generated)
	}
	return nil
}

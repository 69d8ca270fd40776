package main

import (
	"embed"
	"flag"
	"fmt"
	"io"
	"os"
)

// testdata holds the committed seed-0 reference outputs.
//
//go:embed testdata
var testdata embed.FS

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line and runs one of three modes: one
// workload (-workload), a suite of every workload (the default), or a
// comparison of two suite reports (-compare). It returns the exit
// status: 0 when every output checked out, 1 on a failed check or
// error, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process and print its result as the last line (default: the suite)")
	seed := fs.Uint64("seed", 0, "workload seed (0 = the paper's inputs)")
	seconds := fs.Float64("seconds", 20, "with -workload: how long to measure, in seconds (at least three reps, and with -trace 1 one traced round, always run)")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced run and reports per-layer metrics, 0 the end-to-end metrics")
	spans := fs.String("spans", "", "append the traced run's spans to this file as JSON lines")
	quick := fs.Bool("quick", false, "one set-up, one round, one rep")
	out := fs.String("o", "dsmbench-report.json", "suite: report file")
	compare := fs.Bool("compare", false, "compare two suite reports: dsmbench -compare A.json B.json")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "compare: the file declaring the metrics' bounds")
	work := fs.String("work", ".bench_build/dsmbench-work", "scratch directory for result stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dsmbench: -compare needs two report files")
			return 2
		}
		worse, err := runCompare(*benchmark, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "dsmbench:", err)
			return 1
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "dsmbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "dsmbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	if *name == "" {
		_, ok, err := runSuite(suiteConfig{seed: *seed, quick: *quick, out: *out, spans: *spans, work: *work}, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "dsmbench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	b := &bench{
		workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick,
		work: scratch, out: stdout, chk: &checker{log: stderr},
	}
	if b.traced {
		b.t = newTracer(*name)
	}
	res, err := runWorkload(b)
	if err != nil {
		fmt.Fprintln(stderr, "dsmbench:", err)
		return 1
	}
	if *spans != "" && b.traced {
		if err := appendSpans(*spans, b.t); err != nil {
			fmt.Fprintln(stderr, "dsmbench:", err)
			return 1
		}
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "dsmbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

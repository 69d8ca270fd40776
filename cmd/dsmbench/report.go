package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// reportSchema identifies the suite report format.
const reportSchema = "dsmbench-report/v1"

// report is what a suite run writes: every workload's end-to-end
// metrics summarized over rounds, its traced run's per-layer metrics,
// and the host the numbers came from.
type report struct {
	Schema       string           `json:"schema"`
	Host         host             `json:"host"`
	Seed         uint64           `json:"seed"`
	Rounds       int              `json:"rounds"`
	RepsPerRound int              `json:"reps_per_round"`
	WallS        float64          `json:"wall_s"`
	Workloads    []workloadReport `json:"workloads"`
}

// host fingerprints the machine: a calibration reading per round flags
// a slow or busy host without normalizing anything by it.
type host struct {
	Go            string    `json:"go"`
	NProc         int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	Commit        string    `json:"commit"`
	CalibrationMS []float64 `json:"calibration_ms"`
	Calibration   summary   `json:"calibration"`
}

type workloadReport struct {
	Name       string                  `json:"name"`
	Correct    bool                    `json:"correct"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	FailedFrac float64                 `json:"failed_frac"`
	EndToEnd   map[string]reportMetric `json:"end_to_end"`
	PerLayer   map[string]value        `json:"per_layer"`
}

type reportMetric struct {
	Unit string `json:"unit"`
	summary
}

// A suite runs every workload this many rounds (one with -quick), each
// child for its minimum of repsPerRound reps.
const (
	rounds       = 5
	repsPerRound = 3
)

// suiteConfig configures a suite run.
type suiteConfig struct {
	seed  uint64
	quick bool
	out   string // report path
	spans string // span file path, "" for none
	work  string
}

// runSuite runs every workload round-robin, one child process per
// workload per round, so a burst of host noise hits all workloads
// alike and each child's set-up time and peak memory are its own. A
// traced child per workload follows. It returns the report and whether
// every output checked out.
func runSuite(cfg suiteConfig, stdout, stderr io.Writer) (report, bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, false, err
	}
	if cfg.spans != "" {
		if err := os.WriteFile(cfg.spans, nil, 0o644); err != nil {
			return report{}, false, err
		}
	}
	start := time.Now()
	rep := report{
		Schema: reportSchema, Seed: cfg.seed, Rounds: rounds, RepsPerRound: repsPerRound,
		Host: host{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: telemetry.BuildCommit()},
	}
	if cfg.quick {
		rep.Rounds, rep.RepsPerRound = 1, 1
	}
	if rep.Host.Commit == "" {
		rep.Host.Commit = "unknown"
	}
	samples := make([]map[string][]float64, len(workloads))
	rep.Workloads = make([]workloadReport, len(workloads))
	for i, w := range workloads {
		samples[i] = map[string][]float64{}
		rep.Workloads[i] = workloadReport{Name: w.name, EndToEnd: map[string]reportMetric{}, PerLayer: map[string]value{}}
	}
	add := func(wr *workloadReport, res result) {
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
	}
	for round := 0; round < rep.Rounds; round++ {
		rep.Host.CalibrationMS = append(rep.Host.CalibrationMS, calibrate())
		for i, w := range workloads {
			res, err := runChild(exe, cfg, w.name, false, stderr)
			if err != nil {
				return report{}, false, err
			}
			add(&rep.Workloads[i], res)
			for name, v := range res.Metrics {
				samples[i][name] = append(samples[i][name], v.Value)
			}
		}
	}
	for i, w := range workloads {
		res, err := runChild(exe, cfg, w.name, true, stderr)
		if err != nil {
			return report{}, false, err
		}
		add(&rep.Workloads[i], res)
		rep.Workloads[i].PerLayer = res.Metrics
	}
	rep.Host.Calibration = summarize(rep.Host.CalibrationMS)
	rep.WallS = time.Since(start).Seconds()
	ok := true
	for i := range rep.Workloads {
		wr := &rep.Workloads[i]
		for _, m := range endToEnd {
			wr.EndToEnd[m.name] = reportMetric{Unit: m.unit, summary: summarize(samples[i][m.name])}
		}
		wr.FailedFrac = float64(wr.Failed) / float64(max(wr.Attempted, 1))
		wr.Correct = wr.Failed == 0 && wr.Attempted > 0
		ok = ok && wr.Correct
	}
	writeReport(stdout, rep)
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return report{}, false, err
	}
	if err := os.WriteFile(cfg.out, append(buf, '\n'), 0o644); err != nil {
		return report{}, false, err
	}
	return rep, ok, nil
}

// runChild runs one workload in a child process and returns the result
// from its last output line; its other lines go to log.
func runChild(exe string, cfg suiteConfig, name string, traced bool, log io.Writer) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", "0", "-trace", trace, "-work", cfg.work}
	if traced && cfg.spans != "" {
		args = append(args, "-spans", cfg.spans)
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = log
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(log, l)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("workload %s: no result (%v): %v", name, runErr, err)
	}
	return res, nil
}

// writeReport prints a suite report as a table.
func writeReport(w io.Writer, rep report) {
	fmt.Fprintf(w, "dsmbench %s: %d round(s) x %d rep(s), seed %d, %.0f s; %s, nproc %d, GOMAXPROCS %d, commit %s, calibration %.2f ms [%.2f, %.2f]\n",
		rep.Schema, rep.Rounds, rep.RepsPerRound, rep.Seed, rep.WallS, rep.Host.Go, rep.Host.NProc,
		rep.Host.GOMAXPROCS, rep.Host.Commit, rep.Host.Calibration.Median, rep.Host.Calibration.Q1, rep.Host.Calibration.Q3)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "%s: failed_frac %g (%d of %d checks)\n", wr.Name, wr.FailedFrac, wr.Failed, wr.Attempted)
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.name]
			fmt.Fprintf(w, "  %-14s %12.6g %-4s q1 %-11.6g q3 %-11.6g n %d\n", m.name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		}
		for _, m := range perLayer {
			v := wr.PerLayer[m.name]
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmark decodes BENCHMARK.json, rejecting unknown keys.
func readBenchmark(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return r, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return r, nil
}

// verdict classifies the change from a to b of one metric against its
// bound. delta is the relative change of the median in the worsening
// direction; spread is the wider of the two relative interquartile
// ranges. A spread wider than the bound cannot resolve a change of the
// bound's size, so the verdict is "unresolved" whatever the delta.
func verdict(a, b summary, better string, bound float64) (delta, spread float64, v string) {
	delta = (b.Median - a.Median) / a.Median
	if better == "higher" {
		delta = -delta
	}
	spread = max((a.Q3-a.Q1)/a.Median, (b.Q3-b.Q1)/b.Median)
	switch {
	case spread > bound:
		v = "unresolved"
	case delta > bound:
		v = "worse"
	case delta < -bound:
		v = "better"
	default:
		v = "within"
	}
	return delta, spread, v
}

// runCompare prints, per workload and end-to-end metric, the median
// change from report a to report b against BENCHMARK.json's bound. It
// returns the number of "worse" verdicts.
func runCompare(benchmarkPath, pathA, pathB string, w io.Writer) (int, error) {
	bf, err := readBenchmark(benchmarkPath)
	if err != nil {
		return 0, err
	}
	a, err := readReport(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return 0, err
	}
	ca, cb := a.Host.Calibration.Median, b.Host.Calibration.Median
	fmt.Fprintf(w, "calibration: A %.2f ms, B %.2f ms\n", ca, cb)
	if d := (cb - ca) / ca; d > 0.15 || d < -0.15 {
		fmt.Fprintf(w, "WARNING: calibration differs by %+.0f%%: the hosts (or their load) differ; deltas mix host and code\n", 100*d)
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-16s %-12s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "worse%", "spread%", "bound%", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-16s missing from %s\n", wa.Name, pathB)
			continue
		}
		for _, m := range bf.EndToEnd {
			ma, okA := wa.EndToEnd[m.Name]
			mb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB || ma.Median == 0 {
				fmt.Fprintf(w, "%-16s %-12s missing\n", wa.Name, m.Name)
				continue
			}
			delta, spread, v := verdict(ma.summary, mb.summary, m.Better, m.Bound)
			counts[v]++
			fmt.Fprintf(w, "%-16s %-12s %12.6g %12.6g %+8.2f %8.2f %6.1f  %s\n",
				wa.Name, m.Name, ma.Median, mb.Median, 100*delta, 100*spread, 100*m.Bound, v)
		}
	}
	fmt.Fprintf(w, "verdicts: %d within, %d better, %d worse, %d unresolved\n",
		counts["within"], counts["better"], counts["worse"], counts["unresolved"])
	return counts["worse"], nil
}

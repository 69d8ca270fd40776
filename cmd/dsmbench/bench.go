package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/harness"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	new  func(b *bench) runner
}

// workloads are the benchmark's workloads, in the order a suite runs
// them. Their names and reasons are repeated in BENCHMARK.json.
var workloads = []workload{
	{
		name: "paper-all-s8",
		why:  "cmd/experiments -experiment all -scale 8 with audit: all six experiments, four fabrics, ~230 records rendered as text, CSV and JSON; what users run",
		new: func(b *bench) runner {
			return newSimWorkload(b, harness.Experiments(), harness.Options{Scale: 8})
		},
	},
	{
		name: "local-s1",
		why:  "fig5 at full scale on ccnuma: 16 M trace ops, few remote misses, no page ops; dispatch, cache hits and trace streaming do the work",
		new: func(b *bench) runner {
			return newSimWorkload(b, []string{"fig5"}, harness.Options{
				Scale: 1, Apps: []string{"ocean", "fmm", "raytrace"}, Systems: []string{"ccnuma"},
			})
		},
	},
	{
		name: "remote-ring-s2",
		why:  "fig5 of radix and migratory under migrep, rnuma-half and migrep-contend on a ring: remote misses, page ops and multi-hop routing do the work",
		new: func(b *bench) runner {
			return newSimWorkload(b, []string{"fig5"}, harness.Options{
				Scale: 2, Apps: []string{"radix", "migratory"},
				Systems: []string{"migrep", "rnuma-half", "migrep-contend"}, Fabric: "ring",
			})
		},
	},
	{
		name: "serve-mixed",
		why:  "2 closed-loop clients query an in-process dsmserve over HTTP: 1 query in 10 is a cold simulation, the rest LRU hits and disk reads",
		new:  func(b *bench) runner { return newServeWorkload(b) },
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runner runs one workload in this process.
type runner interface {
	// setup is the cost a cold process pays before its first result:
	// trace generation, plus server start and warm-up for serve. It is
	// timed, repeated, and later calls replace earlier state.
	setup() error
	// prepare fills caches the reps share, untimed.
	prepare() error
	// rep is one timed repetition; it returns the operations it did.
	rep() (float64, error)
	// settle is the untimed work between reps: it checks the outputs
	// produced since the last call and restores the state the next rep
	// starts from.
	settle(c *checker) error
	// traceRound runs one traced round, filling per-layer metrics.
	traceRound(t *tracer, m map[string]float64) error
	close()
}

// bench holds one workload run's settings and its correctness tally.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	quick    bool
	work     string    // scratch directory inside the checkout
	out      io.Writer // human-readable lines
	chk      *checker
	t        *tracer
}

// checker counts outputs checked and outputs found wrong.
type checker struct {
	attempted, failed int
	log               io.Writer
}

func (c *checker) expect(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if c.failed <= 10 {
		fmt.Fprintf(c.log, "dsmbench: check failed: "+format+"\n", args...)
	}
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// loadSize is serve-mixed's concurrency: the server's workers and the
// client connections, capped at the host's CPUs so the load never
// oversubscribes them.
func loadSize() int { return min(2, runtime.NumCPU()) }

// runWorkload runs one workload: repeated set-ups, then timed reps and,
// when traced, traced rounds, within the configured seconds, checking
// each rep's outputs.
func runWorkload(b *bench) (result, error) {
	w, err := lookupWorkload(b.workload)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(b.out, "# dsmbench workload=%s seed=%d seconds=%g trace=%t quick=%t go=%s nproc=%d gomaxprocs=%d serve_load=%d\n",
		b.workload, b.seed, b.seconds, b.traced, b.quick, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), loadSize())
	r := w.new(b)
	defer r.close()

	setupS, err := setups(b, r)
	if err != nil {
		return result{}, err
	}
	if err := r.prepare(); err != nil {
		return result{}, fmt.Errorf("%s prepare: %w", b.workload, err)
	}
	if err := r.settle(b.chk); err != nil {
		return result{}, err
	}

	// The traced run spends half its seconds on untraced reps, which give
	// the rep timings it reports, and half on traced rounds.
	budget := b.seconds
	if b.traced {
		budget /= 2
	}
	metrics, err := timedReps(b, r, budget)
	if err != nil {
		return result{}, err
	}
	metrics["setup_s"] = summarize(setupS)
	if b.traced {
		layers, err := tracedRounds(b, r, budget)
		if err != nil {
			return result{}, err
		}
		maps.Copy(metrics, layers)
	}
	res := result{Attempted: b.chk.attempted, Failed: b.chk.failed, Metrics: map[string]value{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range metricSet(b.traced) {
		s := metrics[m.name]
		if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			s.Median = 0
		}
		res.Metrics[m.name] = value{Value: s.Median, Unit: m.unit}
		fmt.Fprintf(b.out, "%-30s %14.6g %-6s q1 %-11.6g q3 %-11.6g n %d\n", m.name, s.Median, m.unit, s.Q1, s.Q3, s.N)
	}
	return res, nil
}

// setups times repeated set-ups: at least five, and more while they
// have taken under two seconds, up to 25, so that a quick set-up gets
// enough samples for a steady median. Each starts from a collected heap.
func setups(b *bench, r runner) ([]float64, error) {
	var times []float64
	total := 0.0
	for len(times) < 5 || (total < 2 && len(times) < 25) {
		runtime.GC()
		start := time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.workload, err)
		}
		times = append(times, time.Since(start).Seconds())
		total += times[len(times)-1]
		if b.quick {
			break
		}
	}
	return times, nil
}

// timedReps runs reps until the next would overrun the given seconds,
// and at least three (one with -quick). Each rep starts from a collected
// heap; the checks and the other work between reps are not timed and not
// counted against the seconds. Peak RSS is the highest resident size
// any rep reached, each measured from the heap it started with: the
// garbage of set-up and of the checks between reps peaks wherever the
// concurrent GC happens to catch up, which varied a whole-run peak by up
// to 15%.
func timedReps(b *bench, r runner, seconds float64) (map[string]summary, error) {
	minReps := 3
	if b.quick {
		minReps = 1
	}
	var wall, cpu, rate, cal []float64
	rss, measured := 0.0, 0.0
	for len(wall) < minReps || (!b.quick && measured+wall[len(wall)-1] <= seconds) {
		cal = append(cal, calibrate())
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("resetting the peak RSS: %w", err)
		}
		u := readUsage()
		ops, err := r.rep()
		c := u.since()
		if err != nil {
			return nil, fmt.Errorf("%s rep: %w", b.workload, err)
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, fmt.Errorf("reading the peak RSS: %w", err)
		}
		rss = max(rss, peak)
		wall, cpu, rate = append(wall, c.wallS), append(cpu, c.cpuS), append(rate, ops/c.wallS)
		measured += c.wallS
		if err := r.settle(b.chk); err != nil {
			return nil, err
		}
	}
	c := summarize(cal)
	fmt.Fprintf(b.out, "# calibration_ms %.3f q1 %.3f q3 %.3f n %d\n", c.Median, c.Q1, c.Q3, c.N)
	return map[string]summary{
		"run_s":       summarize(wall),
		"cpu_s":       summarize(cpu),
		"ops_per_s":   summarize(rate),
		"peak_rss_mb": {Median: rss, Q1: rss, Q3: rss, N: 1},
	}, nil
}

// tracedRounds runs traced rounds until the next would overrun the given
// seconds (at least one) and reports the median over rounds of each
// per-layer metric it measures. A metric a workload does not set reads 0.
func tracedRounds(b *bench, r runner, seconds float64) (map[string]summary, error) {
	var rounds []map[string]float64
	elapsed := 0.0
	for {
		m := make(map[string]float64, len(perLayer))
		runtime.GC()
		first := len(b.t.spans)
		start := time.Now()
		m["host.calibration_ms"] = calibrate()
		var err error
		b.t.do("dsmbench", "round", func() {
			if err = r.traceRound(b.t, m); err != nil {
				return
			}
			m["cache.l1_probe_ns"] = probe(b.t, "cache", "cache.L1.Lookup", probeL1)
			m["cache.block_probe_ns"] = probe(b.t, "cache", "cache.BlockCache.Lookup", probeBlockCache)
			m["cache.page_probe_ns"] = probe(b.t, "cache", "cache.PageCache.Touch", probePageCache)
			m["engine.dispatch_ns"] = probe(b.t, "engine", "engine.Scheduler.Peek+Requeue", probeDispatch)
			m["interconnect.traverse_ns"] = probe(b.t, "interconnect", "interconnect.Fabric.Traverse", probeTraverse)
		})
		if err != nil {
			return nil, fmt.Errorf("%s traced round: %w", b.workload, err)
		}
		m["tracing.spans"] = float64(len(b.t.spans) - first)
		writeSelfTimes(b.out, b.t.spans[first:])
		rounds = append(rounds, m)
		round := time.Since(start).Seconds()
		elapsed += round
		if b.quick || elapsed+round > seconds {
			break
		}
	}
	out := make(map[string]summary, len(perLayer))
	for _, pm := range perLayer {
		if pm.layer == "rep" {
			continue
		}
		vals := make([]float64, len(rounds))
		for i, m := range rounds {
			vals[i] = m[pm.name]
		}
		out[pm.name] = summarize(vals)
	}
	return out, nil
}

// probe runs one fixed probe loop inside a span.
func probe(t *tracer, layer, name string, f func() float64) float64 {
	var ns float64
	t.do(layer, name, func() { ns = f() })
	return ns
}

// printResult writes the result as the run's last line.
func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// appendSpans appends the tracer's spans to path as JSON lines.
func appendSpans(path string, t *tracer) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeSpans(f, t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

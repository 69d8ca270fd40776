package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/ from a seed-0 rep of each simulator workload")

// The suite re-executes its own binary for each workload. Under go test
// that binary is the test binary, which acts as the command when the
// environment says so.
func TestMain(m *testing.M) {
	if os.Getenv("DSMBENCH_AS_COMMAND") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{1, 2, 4}, [3]float64{1, 2, 4}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// sleeper is a runner whose reps take a fixed time.
type sleeper struct{ reps int }

func (s *sleeper) setup() error          { return nil }
func (s *sleeper) prepare() error        { return nil }
func (s *sleeper) settle(*checker) error { return nil }
func (s *sleeper) close()                {}
func (s *sleeper) rep() (float64, error) {
	s.reps++
	time.Sleep(5 * time.Millisecond)
	return 100, nil
}
func (s *sleeper) traceRound(*tracer, map[string]float64) error { return nil }

func TestTimedRepsMeasureForTheConfiguredSeconds(t *testing.T) {
	for _, c := range []struct {
		seconds  float64
		min, max int
	}{{0, 3, 3}, {0.2, 20, 41}} {
		r := &sleeper{}
		m, err := timedReps(&bench{out: io.Discard}, r, c.seconds)
		if err != nil {
			t.Fatal(err)
		}
		if r.reps < c.min || r.reps > c.max || m["run_s"].N != r.reps {
			t.Errorf("seconds %v: %d reps (%d summarized), want %d to %d", c.seconds, r.reps, m["run_s"].N, c.min, c.max)
		}
		if s := m["run_s"].Median; s < 0.005 || s > 0.05 {
			t.Errorf("seconds %v: run_s %v for 5-ms reps", c.seconds, s)
		}
		if ops := m["ops_per_s"].Median; ops < 2000 || ops > 20000 {
			t.Errorf("seconds %v: ops_per_s %v for 100 ops per 5 ms", c.seconds, ops)
		}
	}
}

// hog is a sleeper whose untimed work between reps touches 64 MiB, as
// serve-mixed's checks do when they recompute reference answers.
type hog struct {
	sleeper
	garbage []byte
}

func (h *hog) settle(*checker) error {
	h.garbage = make([]byte, 64<<20)
	for i := 0; i < len(h.garbage); i += 4096 {
		h.garbage[i] = 1
	}
	h.garbage = nil
	return nil
}

func TestPeakRSSCoversOnlyTheReps(t *testing.T) {
	if err := resetPeakRSS(); err != nil {
		t.Skipf("no resettable peak RSS here: %v", err)
	}
	base, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	m, err := timedReps(&bench{out: io.Discard}, &hog{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if peak := m["peak_rss_mb"].Median; peak > base+32 {
		t.Errorf("peak_rss_mb %.1f MiB from a %.1f-MiB start: the 64 MiB touched between reps was counted", peak, base)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if v, beyond, ok := percentile(xs[900:], 90); !ok || v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v (%d beyond, ok %t), want 90 with 10 beyond", v, beyond, ok)
	}
	if _, beyond, ok := percentile(xs[900:], 99); ok || beyond != 1 {
		t.Errorf("p99 of 1..100 reported with %d beyond; want it suppressed", beyond)
	}
	if v, _, ok := percentile(xs, 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v (ok %t), want 990", v, ok)
	}
	if _, _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestVerdict(t *testing.T) {
	tight := func(median float64) summary {
		return summary{Median: median, Q1: median * 0.99, Q3: median * 1.01, N: 5}
	}
	cases := []struct {
		a, b   summary
		better string
		want   string
	}{
		{tight(1), tight(1.05), "lower", "within"},
		{tight(1), tight(1.30), "lower", "worse"},
		{tight(1), tight(0.70), "lower", "better"},
		{tight(100), tight(70), "higher", "worse"},
		{tight(100), tight(130), "higher", "better"},
		{summary{Median: 1, Q1: 0.8, Q3: 1.1, N: 5}, tight(1.02), "lower", "unresolved"},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.a, c.b, c.better, 0.25); got != c.want {
			t.Errorf("%+v -> %+v (%s is better): %s, want %s", c.a, c.b, c.better, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{ID: 7, Layer: "harness", Dur: 10e9},
		{ID: 8, Parent: 7, Layer: "dsm", Dur: 6e9},
		{ID: 9, Parent: 8, Layer: "audit", Dur: 1e9},
		{ID: 10, Parent: 7, Layer: "dsm", Dur: 3e9},
	}
	got := selfTimes(spans)
	want := map[string]float64{"harness": 1, "dsm": 8, "audit": 1}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("%s self time %v s, want %v s", l, got[l], w)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesUseTheBenchmarkCharset(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q is not 1-16 of [A-Za-z0-9_/%%.-]", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
	}
}

// TestBenchmarkJSONMatchesTheCatalogue keeps BENCHMARK.json and the
// code's workload and metric tables in step.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	bf, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, got, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
		// A metric that cannot hold 10% from run to run moves to the
		// per-layer list rather than getting a wider bound. Only set-up
		// time, which every benchmark must bound and with the largest
		// bound, may exceed it.
		if got.Name != "setup_s" && (got.Bound <= 0 || got.Bound > 0.10) {
			t.Errorf("%s: bound %v outside (0, 0.10]", got.Name, got.Bound)
		}
		if got.Name != "setup_s" && got.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's; set-up must have the largest", got.Name, got.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bf.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
	}
}

func TestReferencesAreCommitted(t *testing.T) {
	for _, w := range workloads {
		r, ok := w.new(&bench{workload: w.name}).(*simWorkload)
		if !ok {
			continue
		}
		if *update {
			writeReference(t, w.name, r)
			continue
		}
		if r.ref == nil || len(r.ref.rows) == 0 {
			t.Errorf("%s: no committed seed-0 reference; run go test -run TestReferencesAreCommitted -update", w.name)
		}
	}
}

// writeReference rewrites a simulator workload's seed-0 reference from
// one rep.
func writeReference(t *testing.T, name string, w *simWorkload) {
	w.b = &bench{workload: name, quick: true}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.rep(); err != nil {
		t.Fatal(err)
	}
	out := w.last
	if err := os.WriteFile(filepath.Join("testdata", name+".csv"), out.csv, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", name+".text.sha256"), []byte(digest(out.text)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptedDigestCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	w, err := lookupWorkload("remote-ring-s2")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workload: w.name, quick: true, out: io.Discard, chk: &checker{log: io.Discard}}
	r := w.new(b).(*simWorkload)
	if r.ref == nil {
		t.Fatal("no committed reference")
	}
	r.ref.textHash = strings.Repeat("0", 64)
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	if err := r.prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rep(); err != nil {
		t.Fatal(err)
	}
	if err := r.settle(b.chk); err != nil {
		t.Fatal(err)
	}
	if want := len(r.ref.rows) + 2; b.chk.attempted != want || b.chk.failed != 1 {
		t.Errorf("checked %d outputs with %d failures, want %d with 1 (the text digest)", b.chk.attempted, b.chk.failed, want)
	}
}

// TestQuickSuiteReportsEveryMetric runs the whole suite once, quickly,
// and checks that it reports every BENCHMARK.json metric for every
// workload with its declared unit, that every output checked out, and
// that the traced runs wrote spans for every traced layer.
func TestQuickSuiteReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	t.Setenv("DSMBENCH_AS_COMMAND", "1")
	var stdout, stderr bytes.Buffer
	reportPath, spansPath := filepath.Join(dir, "report.json"), filepath.Join(dir, "spans.jsonl")
	if code := run([]string{"-quick", "-o", reportPath, "-spans", spansPath, "-work", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	bf, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := readReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(bf.Workloads) {
		t.Fatalf("report has %d workloads, BENCHMARK.json %d", len(rep.Workloads), len(bf.Workloads))
	}
	for i, wr := range rep.Workloads {
		if wr.Name != bf.Workloads[i].Name {
			t.Errorf("workload %d is %s, want %s", i, wr.Name, bf.Workloads[i].Name)
		}
		if !wr.Correct || wr.FailedFrac != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct %t, failed_frac %v over %d checks", wr.Name, wr.Correct, wr.FailedFrac, wr.Attempted)
		}
		for _, m := range bf.EndToEnd {
			got, ok := wr.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit || got.N != 1 || got.Median <= 0 {
				t.Errorf("%s %s: got %+v, want unit %s and a positive value", wr.Name, m.Name, got, m.Unit)
			}
		}
		for _, m := range bf.PerLayer {
			if got, ok := wr.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s %s: got %+v, want unit %s", wr.Name, m.Name, got, m.Unit)
			}
		}
		for _, name := range []string{"run_s", "cpu_s", "ops_per_s", "tracing.overhead"} {
			if got := wr.PerLayer[name]; got.Value <= 0 {
				t.Errorf("%s %s: got %+v, want a positive value", wr.Name, name, got)
			}
		}
	}

	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layers := map[string]map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if layers[s.Workload] == nil {
			layers[s.Workload] = map[string]bool{}
		}
		layers[s.Workload][s.Layer] = true
	}
	for _, w := range workloads {
		want := []string{"apps", "dsm", "audit", "harness", "cache", "engine", "interconnect"}
		if w.name == "serve-mixed" {
			want = append(want, "serve")
		}
		for _, l := range want {
			if !layers[w.name][l] {
				t.Errorf("%s: no %s spans", w.name, l)
			}
		}
	}
}

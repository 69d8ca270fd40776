package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/harness"
)

// simWorkload runs harness experiments the way cmd/experiments does —
// audited, one worker per CPU, on a shared TraceCache warmed before
// timing — and renders their text, CSV and JSON reports.
type simWorkload struct {
	b    *bench
	exps []string
	o    harness.Options // the workload's identity: scale, seed, apps, systems, fabric
	tc   *harness.TraceCache

	opsPerRep float64 // trace operations one rep replays
	ref       *reference
	last      outputs // the latest rep's reports, awaiting verify
}

// outputs are one rep's rendered reports.
type outputs struct {
	text, csv, json []byte
}

// reference is what every rep must reproduce: the committed seed-0
// output, or for another seed the first rep's.
type reference struct {
	rows     []string // CSV records, header excluded
	textHash string
	jsonHash string // "" until the first rep sets it
}

func newSimWorkload(b *bench, exps []string, o harness.Options) *simWorkload {
	o.Seed = b.seed
	w := &simWorkload{b: b, exps: exps, o: o}
	if b.seed == 0 {
		w.ref = committedReference(b.workload)
	}
	return w
}

// setup generates the workload's traces: the cost a cold process pays
// before its first simulation.
func (w *simWorkload) setup() error {
	traces, _, err := generateAll(nil, w.o)
	if err != nil {
		return err
	}
	w.opsPerRep = 0
	for _, exp := range w.exps {
		runs, err := experimentRuns(exp, w.o)
		if err != nil {
			return err
		}
		for _, tr := range traces {
			w.opsPerRep += float64((len(runs) + 1) * tr.Ops())
		}
	}
	return nil
}

// prepare warms the TraceCache the reps share. Running every trace on
// the cheapest system, perfect CC-NUMA, is how a cache is filled
// through the harness's public API.
func (w *simWorkload) prepare() error {
	w.tc = harness.NewTraceCache()
	o := w.o
	o.Systems, o.Fabric = []string{"perfect"}, ""
	o.Traces, o.Out = w.tc, io.Discard
	_, err := harness.RunByName("fig5", o)
	return err
}

// options are the run options of a rep: the workload's identity plus
// the execution knobs.
func (w *simWorkload) options(parallel int, out io.Writer) harness.Options {
	o := w.o
	o.Parallel, o.Audit, o.Traces, o.Out = parallel, true, w.tc, out
	return o
}

// rep runs every experiment and renders its reports as cmd/experiments
// -csv -json does, with its default of one worker per CPU.
func (w *simWorkload) rep() (float64, error) {
	var text, csv bytes.Buffer
	var records []harness.Record
	if err := harness.WriteCSVHeader(&csv); err != nil {
		return 0, err
	}
	for _, exp := range w.exps {
		res, err := harness.RunByName(exp, w.options(runtime.NumCPU(), &text))
		if err != nil {
			return 0, err
		}
		text.WriteByte('\n')
		if err := res.WriteCSVRows(&csv); err != nil {
			return 0, err
		}
		records = append(records, res.Records()...)
	}
	js, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return 0, err
	}
	w.last = outputs{text: text.Bytes(), csv: csv.Bytes(), json: append(js, '\n')}
	return w.opsPerRep, nil
}

func (w *simWorkload) settle(c *checker) error {
	w.verify(c)
	return nil
}

// verify compares the latest rep's reports with the reference: each CSV
// record, the text report's digest and the JSON report's digest.
func (w *simWorkload) verify(c *checker) {
	out := w.last
	w.last = outputs{}
	if out.csv == nil {
		return
	}
	rows := csvRows(out.csv)
	if w.ref == nil {
		w.ref = &reference{rows: rows, textHash: digest(out.text)}
	}
	if w.ref.jsonHash == "" {
		w.ref.jsonHash = digest(out.json)
	}
	for i, want := range w.ref.rows {
		got := ""
		if i < len(rows) {
			got = rows[i]
		}
		c.expect(got == want, "record %d: got %q, want %q", i, got, want)
	}
	for _, extra := range rows[min(len(rows), len(w.ref.rows)):] {
		c.expect(false, "unexpected record %q", extra)
	}
	c.expect(digest(out.text) == w.ref.textHash, "text report digest %s, want %s", digest(out.text), w.ref.textHash)
	c.expect(digest(out.json) == w.ref.jsonHash, "JSON report digest %s, want %s", digest(out.json), w.ref.jsonHash)
}

// traceRound measures the layers once, serially: the experiments run as
// in a rep but with a span around each harness call and renderer, then
// the same simulations replayed through apps, dsm and audit directly,
// untraced and traced.
func (w *simWorkload) traceRound(t *tracer, m map[string]float64) error {
	u := readUsage()
	var text, csv bytes.Buffer
	var records []harness.Record
	var expS, renderS, textS float64
	if err := harness.WriteCSVHeader(&csv); err != nil {
		return err
	}
	for _, exp := range w.exps {
		var res *harness.Result
		var err error
		expS += t.do("harness", "harness.RunByName", func() {
			t.attr(exp)
			res, err = harness.RunByName(exp, w.options(1, io.Discard))
		})
		if err != nil {
			return err
		}
		textS += t.do("harness", "harness.Result.WriteText", func() { res.WriteText(&text) })
		text.WriteByte('\n')
		renderS += t.do("harness", "harness.Result.WriteCSVRows", func() { err = res.WriteCSVRows(&csv) })
		if err != nil {
			return err
		}
		records = append(records, res.Records()...)
	}
	var js []byte
	var err error
	renderS += t.do("harness", "json.MarshalIndent", func() { js, err = json.MarshalIndent(records, "", "  ") })
	if err != nil {
		return err
	}
	setRuntime(m, u.since())
	renderS += textS
	w.last = outputs{text: text.Bytes(), csv: csv.Bytes(), json: append(js, '\n')}
	w.verify(w.b.chk)

	// The same replay untraced (a nil tracer) and traced prices the spans.
	var plain, l layerTotals
	untraced := time.Now()
	if err := replayAll(nil, &plain, map[string]float64{}, w.exps, w.o); err != nil {
		return err
	}
	untracedS := time.Since(untraced).Seconds()
	compareRecords(w.b.chk, plain.records, records)
	traced := time.Now()
	if err := replayAll(t, &l, m, w.exps, w.o); err != nil {
		return err
	}
	m["tracing.overhead"] = time.Since(traced).Seconds() / untracedS
	compareRecords(w.b.chk, l.records, records)

	m["harness.experiment_s"] = expS
	m["harness.render_s"] = renderS
	m["harness.records"] = float64(len(records))
	m["harness.self_s"] = max(0, expS-plain.buildS-plain.executeAuditS-plain.checkS-textS)
	return nil
}

func (w *simWorkload) close() {}

// replayAll generates the traces of o and replays the experiments on
// them, filling the apps, dsm, cache, interconnect and audit metrics.
func replayAll(t *tracer, l *layerTotals, m map[string]float64, exps []string, o harness.Options) error {
	traces, secs, err := generateAll(t, o)
	if err != nil {
		return err
	}
	m["apps.generate_s"] += secs
	for _, tr := range traces {
		m["apps.generated_ops"] += float64(tr.Ops())
	}
	for _, exp := range exps {
		if err := replay(t, l, exp, o, traces); err != nil {
			return err
		}
	}
	l.set(m)
	return nil
}

// compareRecords checks that a replay rebuilt exactly the records the
// harness produced.
func compareRecords(c *checker, replayed, want []harness.Record) {
	for i, w := range want {
		ok := i < len(replayed) && replayed[i] == w
		c.expect(ok, "replayed record %d (%s/%s/%s) differs from the harness's", i, w.Experiment, w.App, w.Label)
	}
	for i := len(want); i < len(replayed); i++ {
		c.expect(false, "replay produced an extra record %d", i)
	}
}

// csvRows splits a CSV report into its records, dropping the header.
func csvRows(csv []byte) []string {
	var rows []string
	sc := bufio.NewScanner(bytes.NewReader(csv))
	for sc.Scan() {
		rows = append(rows, sc.Text())
	}
	if len(rows) > 0 {
		rows = rows[1:]
	}
	return rows
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// committedReference loads a workload's seed-0 expected output from
// testdata/<workload>.csv and testdata/<workload>.text.sha256, or
// returns nil when none is committed.
func committedReference(workload string) *reference {
	csv, err1 := testdata.ReadFile("testdata/" + workload + ".csv")
	sum, err2 := testdata.ReadFile("testdata/" + workload + ".text.sha256")
	if err1 != nil || err2 != nil {
		return nil
	}
	return &reference{rows: csvRows(csv), textHash: strings.TrimSpace(string(sum))}
}

// setRuntime records the Go runtime's cost of one rep.
func setRuntime(m map[string]float64, c cost) {
	m["runtime.alloc_mb"] = c.allocMB
	m["runtime.gc_cycles"] = c.gcs
	m["runtime.gc_pause_ms"] = c.pauseMS
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
)

// serve-mixed sizing. A pass sends passQueries queries; each block of
// freshEvery consecutive queries holds exactly one fresh seed, so every
// pass carries the same cold load. The other queries draw from hotSeeds
// seeds warmed at set-up, which overflow the server's 4-entry result LRU
// and so split between LRU hits and disk read-throughs.
const (
	hotSeeds    = 8
	passQueries = 400
	freshEvery  = 10
	coldSims    = 3    // cold queries simulated directly per traced round
	answerIters = 1000 // in-process Answer calls timed per traced round
	maxPasses   = 6    // closed-loop passes a traced round spends on percentiles
)

// serveQuery is the workload's query shape for one generator seed.
func serveQuery(seed uint64) harness.Query {
	return harness.Query{
		Experiment: "fig5", Apps: []string{"radix", "ocean"},
		Systems: []string{"ccnuma", "migrep"}, Scale: 64, Seed: seed,
	}
}

// response is one answered query.
type response struct {
	seed   uint64
	status int
	src    string // X-Dsm-Cache: hit, disk, miss or coalesced
	ms     float64
	body   []byte
	err    error
}

func (r response) warm() bool {
	return r.src == string(serve.SourceHit) || r.src == string(serve.SourceDisk)
}

// serveInstance is one in-process server behind a loopback listener.
type serveInstance struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

// startServe starts a server on the result store in dir.
func startServe(dir string, workers int) (*serveInstance, error) {
	store, err := serve.OpenResultStore(dir)
	if err != nil {
		return nil, err
	}
	// A fixed commit keeps result keys independent of the checkout.
	srv := serve.New(serve.Config{Store: store, CacheEntries: 4, Workers: workers, Commit: "dsmbench"})
	return &serveInstance{
		srv: srv, ts: httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}},
	}, nil
}

// stop closes the listener and waits for accepted simulations.
func (in *serveInstance) stop() {
	in.client.CloseIdleConnections()
	in.ts.Close()
	in.srv.Drain()
}

// post sends one query and reads the whole answer.
func (in *serveInstance) post(seed uint64, body []byte) response {
	r := response{seed: seed}
	start := time.Now()
	resp, err := in.client.Post(in.ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.ms = float64(time.Since(start)) / 1e6
	r.status, r.src = resp.StatusCode, resp.Header.Get("X-Dsm-Cache")
	return r
}

// serveWorkload is a closed loop of clients querying an in-process
// dsmserve over HTTP.
//
// Every pass replays the same fixed query order against a server
// started, untimed, on a copy of the result store as set-up left it —
// the hot seeds only — with its LRU re-warmed from disk. Each fresh
// seed is therefore cold for the server that answers it, every pass
// does the same work from the same state, and memory stays bounded by
// one pass although the server keeps every trace it generates (about
// 4 MB per fresh seed of this query shape).
type serveWorkload struct {
	b      *bench
	load   int      // server workers and client connections
	order  []uint64 // one pass's query seeds
	bodies [][]byte // their encoded queries
	hotDir string   // result store holding the hot seeds
	dir    string   // the current pass's copy of hotDir
	inst   *serveInstance
	// base namespaces the workload's query seeds: hot seeds are
	// base..base+hotSeeds-1, fresh seeds follow, and the traced run's
	// direct cold simulations count up from base+coldBase.
	base, cold uint64

	pending []response        // answered, not yet verified
	refs    map[uint64][]byte // expected body per query seed
}

const coldBase = 1 << 20

func newServeWorkload(b *bench) *serveWorkload {
	w := &serveWorkload{b: b, load: loadSize(), base: b.seed << 32, refs: map[uint64][]byte{}}
	g := lcg(b.seed)
	w.order = make([]uint64, passQueries)
	w.bodies = make([][]byte, passQueries)
	fresh := w.base + hotSeeds
	for i := 0; i < passQueries; i += freshEvery {
		at := int(g.next() % freshEvery)
		for j := i; j < min(i+freshEvery, passQueries); j++ {
			if j-i == at {
				w.order[j] = fresh
				fresh++
			} else {
				w.order[j] = w.base + g.next()%hotSeeds
			}
			w.bodies[j] = encodeQuery(w.order[j])
		}
	}
	return w
}

func encodeQuery(seed uint64) []byte {
	b, err := json.Marshal(serveQuery(seed))
	if err != nil {
		panic(err) // a plain struct always encodes
	}
	return b
}

// setup starts a server on an empty result store and warms the hot
// seeds through it: each is generated, simulated and stored.
func (w *serveWorkload) setup() error {
	w.close()
	dir, err := os.MkdirTemp(w.b.work, "hot-")
	if err != nil {
		return err
	}
	w.hotDir = dir
	inst, err := startServe(dir, w.load)
	if err != nil {
		return err
	}
	defer inst.stop()
	return w.warm(inst)
}

// warm queries every hot seed once, leaving the last four in the LRU.
func (w *serveWorkload) warm(inst *serveInstance) error {
	for i := uint64(0); i < hotSeeds; i++ {
		r := inst.post(w.base+i, encodeQuery(w.base+i))
		w.pending = append(w.pending, r)
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warming seed %d: status %d: %v", r.seed, r.status, r.err)
		}
	}
	return nil
}

// restart replaces the server with one on a fresh copy of the hot
// store and re-warms its LRU.
func (w *serveWorkload) restart() error {
	w.stop()
	dir, err := os.MkdirTemp(w.b.work, "pass-")
	if err != nil {
		return err
	}
	w.dir = dir
	if err := copyFiles(w.hotDir, dir); err != nil {
		return err
	}
	if w.inst, err = startServe(dir, w.load); err != nil {
		return err
	}
	return w.warm(w.inst)
}

// copyFiles copies the regular files of one directory into another.
func copyFiles(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) prepare() error { return w.restart() }

// pass sends one pass of queries from the given number of closed-loop
// clients and returns its wall time and answers.
func (w *serveWorkload) pass(clients int) (float64, []response) {
	res := make([]response, len(w.order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(res); i = int(next.Add(1)) - 1 {
				res[i] = w.inst.post(w.order[i], w.bodies[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	w.pending = append(w.pending, res...)
	return wall, res
}

// tracedPass is a one-client pass with a span around each request.
func (w *serveWorkload) tracedPass(t *tracer) (float64, []response) {
	res := make([]response, len(w.order))
	start := time.Now()
	for i, s := range w.order {
		end := t.begin("serve", "POST /query")
		res[i] = w.inst.post(s, w.bodies[i])
		t.attr(res[i].src)
		end()
	}
	wall := time.Since(start).Seconds()
	w.pending = append(w.pending, res...)
	return wall, res
}

func (w *serveWorkload) rep() (float64, error) {
	w.pass(w.load)
	return passQueries, nil
}

// expected returns the body the server must send for a seed: the
// harness's records for the query, encoded as cmd/experiments -json
// encodes them, computed here without the server.
func (w *serveWorkload) expected(seed uint64) ([]byte, error) {
	if b, ok := w.refs[seed]; ok {
		return b, nil
	}
	q := serveQuery(seed)
	var records []harness.Record
	for _, name := range q.ExperimentNames() {
		res, err := harness.RunByName(name, q.Options(harness.Options{Parallel: w.load, Audit: true, Out: io.Discard}))
		if err != nil {
			return nil, err
		}
		records = append(records, res.Records()...)
	}
	js, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return nil, err
	}
	w.refs[seed] = append(js, '\n')
	return w.refs[seed], nil
}

// settle checks every answer since the last call — status 200 and the
// body the harness produces for the same query — and restarts the
// server for the next pass.
func (w *serveWorkload) settle(c *checker) error {
	w.verify(c)
	if err := w.restart(); err != nil {
		return err
	}
	w.verify(c)
	return nil
}

func (w *serveWorkload) verify(c *checker) {
	for _, r := range w.pending {
		if r.err != nil || r.status != http.StatusOK {
			c.expect(false, "query seed %d: status %d: %v", r.seed, r.status, r.err)
			continue
		}
		want, err := w.expected(r.seed)
		if err != nil {
			c.expect(false, "reference for seed %d: %v", r.seed, err)
			continue
		}
		c.expect(bytes.Equal(r.body, want), "query seed %d (%s): body differs from the harness's", r.seed, r.src)
	}
	w.pending = nil
}

// traceRound measures the serving stack's layers: closed-loop passes
// for the latency percentiles and cache counts, a one-client pass with
// and without spans, in-process Answer calls, and cold queries
// simulated directly and replayed through apps, dsm and audit.
func (w *serveWorkload) traceRound(t *tracer, m map[string]float64) error {
	var all []response
	var wall float64
	for passes := 0; passes < maxPasses; passes++ {
		u := readUsage()
		pw, res := w.pass(w.load)
		if passes == 0 {
			setRuntime(m, u.since())
		}
		wall += pw
		all = append(all, res...)
		if err := w.settle(w.b.chk); err != nil {
			return err
		}
		if w.b.quick || tailsMeasured(all) {
			break
		}
	}
	passes := float64(len(all)) / passQueries
	for _, r := range all {
		switch {
		case r.status == http.StatusTooManyRequests:
			m["serve.rejected"] += 1 / passes
		case r.src == string(serve.SourceHit):
			m["serve.hits"] += 1 / passes
		case r.src == string(serve.SourceDisk):
			m["serve.disk_hits"] += 1 / passes
		case r.src == string(serve.SourceMiss):
			m["serve.misses"] += 1 / passes
		case r.src == string(serve.SourceCoalesced):
			m["serve.coalesced"] += 1 / passes
		}
	}
	m["serve.qps"] = float64(len(all)) / wall
	warm, cold := latencies(all)
	m["serve.warm_p50_ms"] = reportPercentile(w.b.out, "serve.warm_p50_ms", warm, 50)
	m["serve.warm_p99_ms"] = reportPercentile(w.b.out, "serve.warm_p99_ms", warm, 99)
	m["serve.cold_p50_ms"] = reportPercentile(w.b.out, "serve.cold_p50_ms", cold, 50)
	m["serve.cold_p90_ms"] = reportPercentile(w.b.out, "serve.cold_p90_ms", cold, 90)

	untraced, _ := w.pass(1)
	if err := w.settle(w.b.chk); err != nil {
		return err
	}
	traced, res := w.tracedPass(t)
	m["tracing.overhead"] = traced / untraced
	bySource := map[string][]float64{}
	for _, r := range res {
		bySource[r.src] = append(bySource[r.src], r.ms)
	}
	m["serve.hit_ms"] = summarize(bySource[string(serve.SourceHit)]).Median
	m["serve.disk_ms"] = summarize(bySource[string(serve.SourceDisk)]).Median
	m["serve.miss_ms"] = summarize(bySource[string(serve.SourceMiss)]).Median
	if err := w.timeAnswer(t, m); err != nil {
		return err
	}
	if err := w.settle(w.b.chk); err != nil {
		return err
	}
	return w.simulateCold(t, m)
}

// timeAnswer times Server.Answer in-process on a query held in the
// result LRU, and attributes the rest of an HTTP hit to the HTTP layer.
func (w *serveWorkload) timeAnswer(t *tracer, m map[string]float64) error {
	q := serveQuery(w.base)
	ctx := context.Background()
	body, _, err := w.inst.srv.Answer(ctx, q)
	if err != nil {
		return err
	}
	s := t.do("serve", "serve.Server.Answer", func() {
		for i := 0; i < answerIters && err == nil; i++ {
			_, _, err = w.inst.srv.Answer(ctx, q)
		}
	})
	if err != nil {
		return err
	}
	w.pending = append(w.pending, response{seed: w.base, status: http.StatusOK, src: "answer", body: body})
	m["serve.answer_us"] = s * 1e6 / answerIters
	m["serve.http_overhead_us"] = m["serve.hit_ms"]*1000 - m["serve.answer_us"]
	return nil
}

// simulateCold runs fresh queries' experiments directly, as the
// server's cold path does, and replays their simulations.
func (w *serveWorkload) simulateCold(t *tracer, m map[string]float64) error {
	var l layerTotals
	var simMS []float64
	var expS, renderS float64
	records := 0
	for k := 0; k < coldSims; k++ {
		q := serveQuery(w.base + coldBase + w.cold)
		w.cold++
		o := q.Options(harness.Options{Parallel: 1, Audit: true, Out: io.Discard})
		var res *harness.Result
		var err error
		s := t.do("harness", "harness.RunByName", func() {
			t.attr("fig5")
			res, err = harness.RunByName("fig5", o)
		})
		if err != nil {
			return err
		}
		renderS += t.do("harness", "json.MarshalIndent", func() {
			_, err = json.MarshalIndent(res.Records(), "", "  ")
		})
		if err != nil {
			return err
		}
		expS += s
		simMS = append(simMS, s*1000)
		first := len(l.records)
		if err := replayAll(t, &l, m, []string{"fig5"}, o); err != nil {
			return err
		}
		compareRecords(w.b.chk, l.records[first:], res.Records())
		records += len(res.Records())
	}
	m["serve.simulate_ms"] = summarize(simMS).Median
	m["serve.queue_wait_ms"] = m["serve.miss_ms"] - m["serve.simulate_ms"]
	m["harness.experiment_s"] = expS
	m["harness.render_s"] = renderS
	m["harness.records"] = float64(records)
	// The cold path generates its traces inside RunByName.
	m["harness.self_s"] = max(0, expS-m["apps.generate_s"]-l.buildS-l.executeAuditS-l.checkS)
	return nil
}

// stop stops the current pass's server and removes its result store.
func (w *serveWorkload) stop() {
	if w.inst != nil {
		w.inst.stop()
		w.inst = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *serveWorkload) close() {
	w.stop()
	if w.hotDir != "" {
		os.RemoveAll(w.hotDir)
		w.hotDir = ""
	}
}

// latencies splits answered queries into warm (LRU or disk) and cold
// (simulated or coalesced onto a simulation) latencies.
func latencies(rs []response) (warm, cold []float64) {
	for _, r := range rs {
		if r.warm() {
			warm = append(warm, r.ms)
		} else {
			cold = append(cold, r.ms)
		}
	}
	return warm, cold
}

// tailsMeasured reports whether every reported percentile has at least
// ten samples beyond it.
func tailsMeasured(rs []response) bool {
	warm, cold := latencies(rs)
	_, _, okW := percentile(warm, 99)
	_, _, okC := percentile(cold, 90)
	return okW && okC
}

// reportPercentile returns a percentile for the metric map, or 0 when
// fewer than ten samples lie beyond it, and says which on w.
func reportPercentile(w io.Writer, name string, samples []float64, p float64) float64 {
	v, beyond, ok := percentile(samples, p)
	if !ok {
		fmt.Fprintf(w, "# %s suppressed: %d of %d samples beyond it, need 10\n", name, beyond, len(samples))
		return 0
	}
	fmt.Fprintf(w, "# %s from %d samples, %d beyond\n", name, len(samples), beyond)
	return v
}

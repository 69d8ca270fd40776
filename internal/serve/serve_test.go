package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/trace/store"
)

// testQuery returns a distinct valid query per seed.
func testQuery(seed uint64) harness.Query {
	return harness.Query{
		Experiment: "fig5",
		Apps:       []string{"radix"},
		Systems:    []string{"ccnuma"},
		Scale:      64,
		Seed:       seed,
	}.Normalize()
}

// blockingRunner counts invocations and blocks each one until release
// is closed, so tests can hold a flight open.
type blockingRunner struct {
	calls   atomic.Int64
	release chan struct{}
	body    []byte
	err     error
}

func (r *blockingRunner) run(ctx context.Context, q harness.Query) ([]byte, error) {
	r.calls.Add(1)
	if r.release != nil {
		<-r.release
	}
	return r.body, r.err
}

// TestCoalescing is the tentpole invariant: 32 concurrent identical
// cold queries execute exactly one simulation; one caller leads the
// flight, the rest coalesce onto it, and everyone gets the same bytes.
func TestCoalescing(t *testing.T) {
	run := &blockingRunner{release: make(chan struct{}), body: []byte("records\n")}
	s := newServer(Config{Commit: "test"}, run.run)
	defer s.Drain()

	const callers = 32
	q := testQuery(1)
	started := make(chan struct{}, callers)
	type res struct {
		body []byte
		src  Source
		err  error
	}
	results := make([]res, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			body, src, err := s.Answer(context.Background(), q)
			results[i] = res{body, src, err}
		}(i)
	}
	for i := 0; i < callers; i++ {
		<-started
	}
	// All callers are in Answer; let the single flight finish.
	close(run.release)
	wg.Wait()

	if got := run.calls.Load(); got != 1 {
		t.Fatalf("simulations executed = %d, want exactly 1", got)
	}
	var misses, coalesced int
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if !bytes.Equal(r.body, run.body) {
			t.Fatalf("caller %d: body %q, want %q", i, r.body, run.body)
		}
		switch r.src {
		case SourceMiss:
			misses++
		case SourceCoalesced, SourceHit:
			// A caller that arrives after the flight completes is a
			// cache hit; both mean "did not simulate".
			coalesced++
		default:
			t.Fatalf("caller %d: unexpected source %q", i, r.src)
		}
	}
	if misses != 1 {
		t.Fatalf("leaders = %d, want 1 (coalesced+hits = %d)", misses, coalesced)
	}
	if st := s.StatusNow(); st.Queries.Misses != 1 {
		t.Fatalf("statusz misses = %d, want 1", st.Queries.Misses)
	}
}

// TestErrorDoesNotPoisonKey: a failed flight must release its key so
// the next identical query retries instead of replaying the failure.
func TestErrorDoesNotPoisonKey(t *testing.T) {
	var calls atomic.Int64
	fail := errors.New("generator exploded")
	s := newServer(Config{Commit: "test"}, func(ctx context.Context, q harness.Query) ([]byte, error) {
		if calls.Add(1) == 1 {
			return nil, fail
		}
		return []byte("ok\n"), nil
	})
	defer s.Drain()

	q := testQuery(1)
	if _, _, err := s.Answer(context.Background(), q); !errors.Is(err, fail) {
		t.Fatalf("first answer error = %v, want %v", err, fail)
	}
	body, src, err := s.Answer(context.Background(), q)
	if err != nil {
		t.Fatalf("second answer after failed flight: %v", err)
	}
	if src != SourceMiss {
		t.Fatalf("second answer source = %q, want %q (a fresh simulation)", src, SourceMiss)
	}
	if string(body) != "ok\n" {
		t.Fatalf("second answer body = %q", body)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("runner calls = %d, want 2", got)
	}
	if s.InFlight() != 0 {
		t.Fatalf("flights left open: %d", s.InFlight())
	}
}

// TestLRUEvictionAndDiskReadThrough: an entry evicted from the
// in-memory LRU is re-served from the on-disk store (SourceDisk), not
// re-simulated.
func TestLRUEvictionAndDiskReadThrough(t *testing.T) {
	store, err := OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	s := newServer(Config{Store: store, CacheEntries: 1, Commit: "test"},
		func(ctx context.Context, q harness.Query) ([]byte, error) {
			calls.Add(1)
			return []byte(fmt.Sprintf("body-seed-%d\n", q.Seed)), nil
		})
	defer s.Drain()

	ctx := context.Background()
	qa, qb := testQuery(1), testQuery(2)
	if _, src, err := s.Answer(ctx, qa); err != nil || src != SourceMiss {
		t.Fatalf("cold A: src=%q err=%v", src, err)
	}
	if _, src, err := s.Answer(ctx, qb); err != nil || src != SourceMiss {
		t.Fatalf("cold B: src=%q err=%v", src, err)
	}
	// CacheEntries=1: B evicted A from memory; A must read through disk.
	body, src, err := s.Answer(ctx, qa)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceDisk {
		t.Fatalf("evicted A answered from %q, want %q", src, SourceDisk)
	}
	if string(body) != "body-seed-1\n" {
		t.Fatalf("disk read-through body = %q", body)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("simulations = %d, want 2 (disk hit must not re-simulate)", got)
	}
	// And the disk hit re-warms memory: the next ask is a memory hit.
	if _, src, _ := s.Answer(ctx, qa); src != SourceHit {
		t.Fatalf("post-read-through source = %q, want %q", src, SourceHit)
	}
}

// TestBackpressure: with one worker held busy and a full queue, a third
// distinct cold query is refused with ErrOverloaded, and the HTTP layer
// maps it to 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	run := &blockingRunner{release: make(chan struct{}), body: []byte("x\n")}
	s := newServer(Config{Workers: 1, QueueDepth: 1, Commit: "test"}, run.run)

	// Fill the worker and the queue with two distinct cold flights —
	// strictly in that order. Submitting both concurrently can bounce
	// the second off the still-occupied queue slot (TrySubmit never
	// blocks), leaving the Queued spin below waiting forever.
	errc := make(chan error, 2)
	submit := func(seed uint64) {
		go func() {
			_, _, err := s.Answer(context.Background(), testQuery(seed))
			errc <- err
		}()
	}
	submit(1)
	// The runner's first call means the worker dequeued the job, so the
	// queue slot is free for the second flight.
	for run.calls.Load() == 0 {
		runtime.Gosched()
	}
	submit(2)
	for s.pool.Queued() == 0 {
		runtime.Gosched()
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/query?experiment=fig5&apps=radix&systems=ccnuma&scale=64&seed=3", nil)
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want %d", rec.Code, http.StatusTooManyRequests)
	}
	// No cold run has completed yet (both flights are still blocked),
	// so the latency-derived hint falls back to its 1-second floor.
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q before any cold-run observation", got, "1")
	}
	if st := s.StatusNow(); st.Queries.Rejected != 1 {
		t.Fatalf("statusz rejected = %d, want 1", st.Queries.Rejected)
	}

	close(run.release)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("accepted flight failed: %v", err)
		}
	}
	s.Drain()
}

// TestRetryAfterScalesWithBacklog: the 429 hint is (backlog / workers)
// x observed mean cold-run latency, rounded up and clamped to [1, 60]
// — not a hard-coded constant.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	run := &blockingRunner{release: make(chan struct{}), body: []byte("x\n")}
	s := newServer(Config{Workers: 1, QueueDepth: 1, Commit: "test"}, run.run)

	// Seed the latency observation directly: one completed cold run
	// that took 4 seconds of wall time.
	s.coldRuns.Store(1)
	s.coldNanos.Store(int64(4 * time.Second))

	// Hold the worker busy and fill the queue: backlog = 2 over 1
	// worker, so the estimate is 2 x 4s = 8s. Worker first, queue slot
	// second — concurrent submission can bounce the second flight off
	// the still-occupied queue slot and deadlock the Queued spin.
	errc := make(chan error, 2)
	submit := func(seed uint64) {
		go func() {
			_, _, err := s.Answer(context.Background(), testQuery(seed))
			errc <- err
		}()
	}
	submit(1)
	for run.calls.Load() == 0 {
		runtime.Gosched()
	}
	submit(2)
	for s.pool.Queued() == 0 {
		runtime.Gosched()
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/query?experiment=fig5&apps=radix&systems=ccnuma&scale=64&seed=3", nil)
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want %d", rec.Code, http.StatusTooManyRequests)
	}
	if got := rec.Header().Get("Retry-After"); got != "8" {
		t.Fatalf("Retry-After = %q, want %q (2 jobs x 4s mean / 1 worker)", got, "8")
	}

	// A pathological mean clamps at the 60-second ceiling instead of
	// telling clients to go away for hours.
	s.coldNanos.Store(int64(2 * time.Hour))
	if got := s.retryAfterSeconds(); got != 60 {
		t.Fatalf("retryAfterSeconds = %d, want clamp at 60", got)
	}

	close(run.release)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("accepted flight failed: %v", err)
		}
	}
	s.Drain()
}

// TestDrainWaitsForAcceptedWork: Drain returns only after accepted
// simulations finish, and their results are still cached.
func TestDrainWaitsForAcceptedWork(t *testing.T) {
	run := &blockingRunner{release: make(chan struct{}), body: []byte("late\n")}
	s := newServer(Config{Workers: 1, Commit: "test"}, run.run)

	q := testQuery(1)
	go func() { s.Answer(context.Background(), q) }()
	for run.calls.Load() == 0 {
		runtime.Gosched()
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while a simulation was still running")
	default:
	}
	close(run.release)
	<-drained

	// The drained flight's result landed in the cache.
	body, src, err := s.Answer(context.Background(), q)
	if err != nil || src != SourceHit || string(body) != "late\n" {
		t.Fatalf("post-drain answer: body=%q src=%q err=%v", body, src, err)
	}
}

// TestHTTPBadQuery: malformed and unknown inputs are 400s, unknown
// paths 404, wrong methods 405.
func TestHTTPBadQuery(t *testing.T) {
	s := newServer(Config{Commit: "test"}, func(ctx context.Context, q harness.Query) ([]byte, error) {
		return []byte("ok\n"), nil
	})
	defer s.Drain()

	cases := []struct {
		method, target, body string
		want                 int
	}{
		{http.MethodGet, "/query?experiment=nope", "", http.StatusBadRequest},
		{http.MethodGet, "/query?apps=notanapp", "", http.StatusBadRequest},
		{http.MethodGet, "/query?bogus=1", "", http.StatusBadRequest},
		{http.MethodGet, "/query?scale=abc", "", http.StatusBadRequest},
		{http.MethodGet, "/query?experiment=fig5&shards=4", "", http.StatusBadRequest},
		{http.MethodPost, "/query", `{"experiment":"fig5","shards":4}`, http.StatusBadRequest},
		{http.MethodGet, "/query?experiment=toposweep&fabric=ring", "", http.StatusBadRequest},
		{http.MethodPost, "/query", `{"experiment":"fig5","bogus":1}`, http.StatusBadRequest},
		{http.MethodPost, "/query", `not json`, http.StatusBadRequest},
		{http.MethodDelete, "/query", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/nosuch", "", http.StatusNotFound},
	}
	for _, c := range cases {
		var body io.Reader
		if c.body != "" {
			body = bytes.NewReader([]byte(c.body))
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, body))
		if rec.Code != c.want {
			t.Errorf("%s %s: status = %d, want %d", c.method, c.target, rec.Code, c.want)
		}
	}
}

// TestHTTPOversizedBodyRejected: a POST body over maxQueryBytes is
// refused with 413 and runs no simulation, even though the document in
// it would be a valid query.
func TestHTTPOversizedBodyRejected(t *testing.T) {
	var calls atomic.Int64
	s := newServer(Config{Commit: "test"}, func(ctx context.Context, q harness.Query) ([]byte, error) {
		calls.Add(1)
		return []byte("ok\n"), nil
	})
	defer s.Drain()

	body := `{"experiment":"fig5",` + strings.Repeat(" ", 1<<20) + `"apps":["radix"],"scale":64}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want %d: %s", rec.Code, http.StatusRequestEntityTooLarge, rec.Body)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("simulations = %d, want 0", n)
	}
}

// TestHTTPDuplicateListsRejected: a client naming an application,
// system (in any spelling normalization folds) or sweep scale twice
// gets a 400 and runs no simulation.
func TestHTTPDuplicateListsRejected(t *testing.T) {
	var calls atomic.Int64
	s := newServer(Config{Commit: "test"}, func(ctx context.Context, q harness.Query) ([]byte, error) {
		calls.Add(1)
		return []byte("ok\n"), nil
	})
	defer s.Drain()

	cases := []struct{ method, target, body string }{
		{http.MethodGet, "/query?experiment=fig5&apps=radix,radix&scale=64", ""},
		{http.MethodGet, "/query?experiment=fig5&apps=radix&systems=ccnuma,CCNUMA&scale=64", ""},
		{http.MethodPost, "/query", `{"experiment":"fig5","apps":["radix"],"systems":["ccnuma"," CCNUMA "],"scale":64}`},
		{http.MethodPost, "/query", `{"experiment":"scalesweep","apps":["radix"],"scales":[64,64]}`},
	}
	for _, c := range cases {
		var body io.Reader
		if c.body != "" {
			body = strings.NewReader(c.body)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, body))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "listed twice") {
			t.Errorf("%s %s %s: status = %d body %q, want 400 naming the repeat", c.method, c.target, c.body, rec.Code, rec.Body)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("simulations = %d, want 0", n)
	}
}

// TestHTTPEquivalentQueriesShareKey: GET and POST spellings of the same
// query (including normalization aliases) answer from one cache entry.
func TestHTTPEquivalentQueriesShareKey(t *testing.T) {
	var calls atomic.Int64
	s := newServer(Config{Commit: "test"}, func(ctx context.Context, q harness.Query) ([]byte, error) {
		calls.Add(1)
		return []byte("shared\n"), nil
	})
	defer s.Drain()

	get := httptest.NewRequest(http.MethodGet, "/query?experiment=fig5&apps=radix&systems=CCNUMA&scale=64&seed=7", nil)
	post := httptest.NewRequest(http.MethodPost, "/query",
		bytes.NewReader([]byte(`{"experiment":"FIG5","apps":["radix"],"systems":[" ccnuma "],"scale":64,"seed":7}`)))

	recGet := httptest.NewRecorder()
	s.ServeHTTP(recGet, get)
	recPost := httptest.NewRecorder()
	s.ServeHTTP(recPost, post)

	for _, rec := range []*httptest.ResponseRecorder{recGet, recPost} {
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("simulations = %d, want 1 (normalization should alias the spellings)", calls.Load())
	}
	if gk, pk := recGet.Header().Get("X-Dsm-Key"), recPost.Header().Get("X-Dsm-Key"); gk != pk || gk == "" {
		t.Fatalf("keys differ: GET %q, POST %q", gk, pk)
	}
	if recPost.Header().Get("X-Dsm-Cache") != string(SourceHit) {
		t.Fatalf("second spelling source = %q, want %q", recPost.Header().Get("X-Dsm-Cache"), SourceHit)
	}
	if !bytes.Equal(recGet.Body.Bytes(), recPost.Body.Bytes()) {
		t.Fatal("GET and POST bodies differ")
	}

}

// TestServerMatchesHarnessJSON runs the real simulation path end to end
// over HTTP and requires the response to be byte-identical to the JSON
// cmd/experiments -json constructs for the same flags — the contract
// that makes the server a drop-in for the CLI. The warm repeat must be
// a memory hit with the same bytes.
func TestServerMatchesHarnessJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	q := testQuery(0)

	// The reference bytes, constructed the way cmd/experiments -json
	// does: run the experiment, flatten records, MarshalIndent.
	r, err := harness.RunByName("fig5", q.Options(harness.Options{
		Parallel: 1, Audit: true, Traces: harness.NewTraceCache(), Out: io.Discard,
	}))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.MarshalIndent(r.Records(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := append(buf, '\n')

	s := New(Config{Commit: "test", Parallel: 1})
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := []byte(`{"experiment":"fig5","apps":["radix"],"systems":["ccnuma"],"scale":64}`)
	fetch := func() ([]byte, string) {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		return got, resp.Header.Get("X-Dsm-Cache")
	}

	cold, coldSrc := fetch()
	if coldSrc != string(SourceMiss) {
		t.Fatalf("cold query source = %q, want %q", coldSrc, SourceMiss)
	}
	if !bytes.Equal(cold, want) {
		t.Fatalf("server response is not byte-identical to the harness JSON\nserver %d bytes, harness %d bytes", len(cold), len(want))
	}
	warm, warmSrc := fetch()
	if warmSrc != string(SourceHit) {
		t.Fatalf("warm query source = %q, want %q", warmSrc, SourceHit)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatal("warm response differs from cold response")
	}
}

// TestStatusz: the counters document is well-formed JSON with the
// pinned schema and live pool/cache numbers.
func TestStatusz(t *testing.T) {
	store, err := OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(Config{Store: store, Workers: 3, QueueDepth: 7, Commit: "abc123"},
		func(ctx context.Context, q harness.Query) ([]byte, error) { return []byte("x\n"), nil })
	defer s.Drain()

	if _, _, err := s.Answer(context.Background(), testQuery(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Answer(context.Background(), testQuery(1)); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz status = %d", rec.Code)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("statusz is not valid JSON: %v", err)
	}
	if st.Schema != StatusSchema {
		t.Fatalf("schema = %q, want %q", st.Schema, StatusSchema)
	}
	if st.Commit != "abc123" {
		t.Fatalf("commit = %q", st.Commit)
	}
	if st.Queries.Misses != 1 || st.Queries.Hits != 1 {
		t.Fatalf("counters: misses=%d hits=%d, want 1/1", st.Queries.Misses, st.Queries.Hits)
	}
	if st.Pool.Workers != 3 || st.Pool.QueueDepth != 7 {
		t.Fatalf("pool: workers=%d depth=%d, want 3/7", st.Pool.Workers, st.Pool.QueueDepth)
	}
	if st.ResultCache.Entries != 1 || st.ResultCache.DiskLen != 1 {
		t.Fatalf("result cache: entries=%d disk=%d, want 1/1", st.ResultCache.Entries, st.ResultCache.DiskLen)
	}
}

// TestTraceMemoryScopedToQuery: a cold query's traces are garbage once
// its body is rendered, so distinct cold queries leave the live heap
// where it was. A fig5 radix@64 trace is about 1.4 MB; a server that
// kept its traces would hold about 10 MB more after these queries.
func TestTraceMemoryScopedToQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := New(Config{Workers: 1, Commit: "test"})
	defer s.Drain()
	answer := func(seed uint64) {
		if _, src, err := s.Answer(context.Background(), testQuery(seed)); err != nil || src != SourceMiss {
			t.Fatalf("seed %d: source %q, err %v; want a cold miss", seed, src, err)
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	answer(100) // the first simulation initializes package-level state
	before := liveHeap()
	const queries = 7
	for seed := uint64(101); seed <= 100+queries; seed++ {
		answer(seed)
	}
	const bound = 4 << 20
	grown := liveHeap() - before
	t.Logf("live heap grew %d B over %d cold queries", grown, queries)
	if grown > bound {
		t.Fatalf("live heap grew %.1f MB over %d cold queries, want under %.1f MB: the server is keeping traces past their query",
			float64(grown)/(1<<20), queries, float64(bound)/(1<<20))
	}
}

// TestTraceReuseThroughStatusz pins where a cold query's traces come
// from, as /statusz reports it: the experiments of one query share a
// generation per app, and a later query on the same workload reads the
// trace store or, without one, generates the trace again.
func TestTraceReuseThroughStatusz(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	run := func(cfg Config, qs ...harness.Query) harness.TraceCacheStats {
		t.Helper()
		cfg.Commit = "test"
		s := New(cfg)
		for _, q := range qs {
			if _, _, err := s.Answer(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
		var st Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("statusz is not valid JSON: %v", err)
		}
		if st.TraceCache.InFlight != 0 {
			t.Fatalf("trace_cache in_flight = %d after Drain, want 0", st.TraceCache.InFlight)
		}
		return st.TraceCache
	}
	ccnuma, migrep := testQuery(3), testQuery(3)
	migrep.Systems = []string{"migrep"}

	if st := run(Config{}, ccnuma, migrep); st.Generated != 2 || st.DiskHits != 0 {
		t.Errorf("no trace store: %+v, want generated 2, disk_hits 0", st)
	}
	traceStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if st := run(Config{TraceStore: traceStore}, ccnuma, migrep); st.Generated != 1 || st.DiskHits != 1 {
		t.Errorf("with a trace store: %+v, want generated 1, disk_hits 1", st)
	}
	all := harness.Query{Experiment: "all", Apps: []string{"lu"}, Scale: 64}.Normalize()
	if st := run(Config{}, all); st.Generated != 1 || st.Hits == 0 {
		t.Errorf("experiment=all on one app: %+v, want generated 1 and hits > 0", st)
	}
}

// TestTraceStatsUnderConcurrency reads /statusz's trace counters while
// cold queries run on every worker, so the race detector sees the
// per-query trace caches come and go.
func TestTraceStatsUnderConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := New(Config{Workers: 2, Commit: "test"})
	const queries = 6
	var wg sync.WaitGroup
	wg.Add(queries)
	for seed := uint64(1); seed <= queries; seed++ {
		go func() {
			defer wg.Done()
			q := testQuery(seed)
			q.Apps = []string{"lu"}
			if _, _, err := s.Answer(context.Background(), q); err != nil {
				t.Error(err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
			s.StatusNow()
			time.Sleep(time.Millisecond)
		}
	}
	s.Drain()
	if st := s.StatusNow().TraceCache; st.Generated != queries || st.InFlight != 0 {
		t.Fatalf("trace_cache %+v, want generated %d and in_flight 0", st, queries)
	}
}

// TestResultStoreRoundTrip: save/load round-trips exact bytes; corrupt,
// truncated and foreign files are silent misses that self-delete.
func TestResultStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ResultKey(testQuery(1), "test")
	body := []byte(`[{"schema":"repro-record/v1"}]` + "\n")
	if err := store.Save(key, body); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Load(key)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("round trip: ok=%v got=%q", ok, got)
	}

	// Flip a byte: the load must miss and remove the file.
	path := filepath.Join(dir, key+".result")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key); ok {
		t.Fatal("corrupt file served as a result")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not deleted: %v", err)
	}

	// Hostile keys never touch the filesystem.
	if _, ok := store.Load("../../etc/passwd"); ok {
		t.Fatal("path-traversal key loaded")
	}
	if err := store.Save("ABC", body); err == nil {
		t.Fatal("non-hex key saved")
	}

	// A nil store is a functioning no-op.
	var nilStore *ResultStore
	if _, ok := nilStore.Load(key); ok {
		t.Fatal("nil store load hit")
	}
	if err := nilStore.Save(key, body); err != nil {
		t.Fatal(err)
	}
}

// TestResultKeySensitivity: the key moves with every identity input and
// holds still across normalization aliases.
func TestResultKeySensitivity(t *testing.T) {
	base := ResultKey(testQuery(1), "commit-a")
	if k := ResultKey(testQuery(2), "commit-a"); k == base {
		t.Fatal("seed change did not change the key")
	}
	if k := ResultKey(testQuery(1), "commit-b"); k == base {
		t.Fatal("commit change did not change the key")
	}
	alias := harness.Query{Experiment: "FIG5", Apps: []string{" radix "}, Systems: []string{"CCNUMA"}, Scale: 64, Seed: 1}
	if k := ResultKey(alias.Normalize(), "commit-a"); k != base {
		t.Fatal("normalization alias produced a different key")
	}
	if !validKey(base) {
		t.Fatalf("ResultKey emitted an invalid key %q", base)
	}
}

// TestResultLRU: recency-ordered eviction at the entry bound.
func TestResultLRU(t *testing.T) {
	c := newResultLRU(2)
	c.add("a", []byte("A"))
	c.add("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.add("c", []byte("C")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being refreshed")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestResultLRUDefensiveCopies: the cache owns its bytes. Neither
// mutating the buffer after add nor scribbling on a body returned by
// get may change what a later get serves.
func TestResultLRUDefensiveCopies(t *testing.T) {
	c := newResultLRU(2)
	orig := []byte("pristine")
	c.add("k", orig)

	orig[0] = 'X' // caller reuses its buffer after insertion
	got, ok := c.get("k")
	if !ok {
		t.Fatal("k missing")
	}
	if string(got) != "pristine" {
		t.Fatalf("body = %q, corrupted by post-add mutation of the inserted buffer", got)
	}

	got[0] = 'Y' // caller scribbles on the body it was handed
	again, ok := c.get("k")
	if !ok {
		t.Fatal("k missing on second get")
	}
	if string(again) != "pristine" {
		t.Fatalf("body = %q, corrupted by mutation of a returned body", again)
	}
}

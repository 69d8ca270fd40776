// Package serve turns the simulator into a long-running service:
// capacity-planning queries over HTTP/JSON, answered with exactly the
// Record documents cmd/experiments -json emits, from a three-layer
// stack built for heavy concurrent traffic.
//
// # Layers
//
// Result memoization: every response is content-addressed by ResultKey
// — the SHA-256 of the query's canonical encoding (harness.Query
// .Canonical), the result and trace format versions, the Record
// schema, and the build commit — and cached in a bounded in-memory LRU
// backed by an on-disk ResultStore, whose files are checksummed and
// written by atomic temp+rename. A repeated query is a map lookup;
// a server restart warms from disk; a new build computes fresh results
// instead of replaying a stale schema.
//
// Single-flight coalescing: N concurrent identical cold queries
// trigger exactly one simulation — the first request leads the flight,
// the rest block on its completion, and an error releases the key
// instead of poisoning it. This generalizes harness.TraceCache's
// single-flight pattern from traces to whole results.
//
// Trace scope: the server holds a trace only while the query that
// needs it runs. Each cold simulation generates its workloads through
// its own TraceCache, once per app for all its experiments, and the
// traces become garbage once the body is rendered. Exact repeats are
// answered from the result tiers. A cold query on a workload another
// query has generated (other systems or another experiment on the same
// app, scale and seed) generates the trace again, and concurrent cold
// queries on one workload each generate it.
//
// Bounded execution with backpressure: cold queries run on a fixed-size
// worker pool behind a fixed-depth queue, and their simulations draw
// from one server-wide set of Workers slots (harness.Slots). A lone
// cold query fills every slot; concurrent cold queries take freed
// slots in turn, so a new query waits for one running simulation, not
// a whole query, and simulations in flight never exceed Workers. When
// the queue is full the server answers 429 with a Retry-After hint
// rather than accepting unbounded work; SIGTERM drains accepted work
// before exit (cmd/dsmserve wires the signal).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// StatusSchema identifies the /statusz document format.
const StatusSchema = "repro-serve-status/v2"

// ErrOverloaded is returned when the cold-path queue is full; the HTTP
// layer maps it to 429 Too Many Requests with a Retry-After hint.
var ErrOverloaded = errors.New("serve: worker queue full")

// Source says which layer satisfied a query.
type Source string

const (
	// SourceHit: the in-memory result LRU.
	SourceHit Source = "hit"
	// SourceDisk: the on-disk result store, read through by this
	// request's flight.
	SourceDisk Source = "disk"
	// SourceMiss: a fresh simulation led by this request.
	SourceMiss Source = "miss"
	// SourceCoalesced: another request's in-flight computation.
	SourceCoalesced Source = "coalesced"
)

// Config assembles a Server.
type Config struct {
	// Store is the persistent result tier (nil = memory only).
	Store *ResultStore

	// CacheEntries bounds the in-memory result LRU (<= 0 selects 128).
	CacheEntries int

	// Workers is the number of simulations the server runs at once,
	// shared by every cold query (<= 0 selects GOMAXPROCS). It also
	// sizes the query pool: up to Workers cold queries run together.
	Workers int

	// QueueDepth bounds the cold-path queue; submissions beyond it are
	// refused with ErrOverloaded (<= 0 selects 4x Workers).
	QueueDepth int

	// Commit pins result keys to a build ("" reads the running
	// binary's VCS stamp via telemetry.BuildCommit; tests inject a
	// fixed value).
	Commit string
}

// flight is one in-flight computation of a result key. done closes
// when body/err are final.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// runner computes the response body for a normalized query; the
// production runner simulates via the harness, tests substitute fakes.
type runner func(ctx context.Context, q harness.Query) ([]byte, error)

// Server answers simulation queries from the memoization stack. It
// implements http.Handler; use New and mount it (cmd/dsmserve serves
// it standalone).
type Server struct {
	store  *ResultStore
	cache  *resultLRU
	pool   *workPool
	slots  *harness.Slots
	commit string
	run    runner

	workers int
	depth   int

	// baseCtx governs the simulations themselves (not individual
	// requests: a flight outlives the request that led it). Abort
	// cancels it for a forced shutdown.
	baseCtx context.Context
	abort   context.CancelFunc

	started time.Time

	mu      sync.Mutex
	flights map[string]*flight
	// liveTraces holds the per-query trace caches of running
	// simulations (their in_flight feeds /statusz); doneTraces sums the
	// counters of finished ones.
	liveTraces map[*harness.TraceCache]struct{}
	doneTraces harness.TraceCacheStats

	hits      atomic.Int64
	diskHits  atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	rejected  atomic.Int64
	failed    atomic.Int64

	// coldRuns/coldNanos accumulate completed cold simulations and
	// their total wall time, so the 429 path can size its Retry-After
	// hint to the observed mean cold-run latency instead of a constant.
	coldRuns  atomic.Int64
	coldNanos atomic.Int64
}

// New builds a Server that computes cold results by running the
// harness experiments (audited, like the CLI default) and rendering
// the flat records exactly as cmd/experiments -json does.
func New(cfg Config) *Server {
	s := newServer(cfg, nil)
	s.run = s.simulate
	return s
}

// newServer is New with an injectable runner (the test seam).
func newServer(cfg Config, run runner) *Server {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 128
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.Commit == "" {
		cfg.Commit = telemetry.BuildCommit()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		store:      cfg.Store,
		cache:      newResultLRU(cfg.CacheEntries),
		pool:       newWorkPool(cfg.Workers, cfg.QueueDepth),
		slots:      harness.NewSlots(cfg.Workers),
		commit:     cfg.Commit,
		run:        run,
		workers:    cfg.Workers,
		depth:      cfg.QueueDepth,
		baseCtx:    ctx,
		abort:      cancel,
		started:    time.Now(),
		flights:    map[string]*flight{},
		liveTraces: map[*harness.TraceCache]struct{}{},
	}
}

// simulate is the production cold path: harness.RunQuery rendered
// with harness.RecordsJSON, as cmd/experiments -json renders it. The
// query's traces live in a cache of its own, dropped on return; its
// simulations may use every worker, bounded by the server's slots.
func (s *Server) simulate(ctx context.Context, q harness.Query) ([]byte, error) {
	traces := harness.NewTraceCache()
	s.mu.Lock()
	s.liveTraces[traces] = struct{}{}
	s.mu.Unlock()
	defer s.retireTraces(traces)

	results, err := harness.RunQuery(ctx, q, harness.Options{
		Parallel: s.workers,
		Slots:    s.slots,
		Audit:    true,
		Traces:   traces,
	})
	if err != nil {
		return nil, err
	}
	var records []harness.Record
	for _, r := range results {
		records = append(records, r.Records()...)
	}
	return harness.RecordsJSON(records)
}

// retireTraces moves a finished simulation's trace counters into the
// server's totals and forgets its cache.
func (s *Server) retireTraces(tc *harness.TraceCache) {
	st := tc.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.liveTraces, tc)
	s.doneTraces.Hits += st.Hits
	s.doneTraces.Coalesced += st.Coalesced
	s.doneTraces.Generated += st.Generated
}

// traceStats sums the trace counters of finished simulations and the
// in-flight generations of running ones.
func (s *Server) traceStats() harness.TraceCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.doneTraces
	for tc := range s.liveTraces {
		st.InFlight += tc.Stats().InFlight
	}
	return st
}

// Answer resolves one validated query through the stack: LRU, then
// (single-flight per key) disk, then a pooled simulation. ctx bounds
// this caller's wait, not the computation — an abandoned flight still
// completes and lands in the caches for the next asker. The returned
// Source reports which layer answered.
func (s *Server) Answer(ctx context.Context, q harness.Query) ([]byte, Source, error) {
	q = q.Normalize()
	key := ResultKey(q, s.commit)

	if body, ok := s.cache.get(key); ok {
		s.hits.Add(1)
		return body, SourceHit, nil
	}

	s.mu.Lock()
	if fl, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		select {
		case <-fl.done:
			return fl.body, SourceCoalesced, fl.err
		case <-ctx.Done():
			return nil, SourceCoalesced, ctx.Err()
		}
	}
	// A flight that completed between the probe above and the lock has
	// already landed its result in the cache.
	if body, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return body, SourceHit, nil
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	s.mu.Unlock()

	// This request leads the flight. Disk is cheap enough to try
	// inline; only a true cold miss needs a pool slot.
	if body, ok := s.store.Load(key); ok {
		s.diskHits.Add(1)
		s.cache.add(key, body)
		s.complete(key, fl, body, nil)
		return body, SourceDisk, nil
	}
	if !s.pool.TrySubmit(func() { s.compute(key, fl, q) }) {
		s.rejected.Add(1)
		s.complete(key, fl, nil, ErrOverloaded)
		return nil, SourceMiss, ErrOverloaded
	}
	select {
	case <-fl.done:
		return fl.body, SourceMiss, fl.err
	case <-ctx.Done():
		return nil, SourceMiss, ctx.Err()
	}
}

// compute runs a cold query on a pool worker and lands the result in
// both cache tiers before releasing the flight's waiters.
func (s *Server) compute(key string, fl *flight, q harness.Query) {
	start := time.Now()
	body, err := s.run(s.baseCtx, q)
	if err == nil {
		s.coldRuns.Add(1)
		s.coldNanos.Add(int64(time.Since(start)))
		s.misses.Add(1)
		_ = s.store.Save(key, body) // best effort; the result is valid either way
		s.cache.add(key, body)
	} else {
		s.failed.Add(1)
	}
	s.complete(key, fl, body, err)
}

// retryAfterSeconds sizes the 429 Retry-After hint to the work ahead
// of a retrying client: the current backlog (queued + running jobs)
// divided across the workers, times the observed mean cold-run wall
// time, rounded up to whole seconds and clamped to [1, 60]. Before the
// first cold run completes there is no latency observation, so the
// hint falls back to 1 second.
func (s *Server) retryAfterSeconds() int {
	runs := s.coldRuns.Load()
	if runs == 0 {
		return 1
	}
	mean := time.Duration(s.coldNanos.Load() / runs)
	backlog := s.pool.Queued() + s.pool.Running()
	est := mean * time.Duration(backlog) / time.Duration(s.workers)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// complete finalizes a flight: publish the outcome, release the key so
// a later identical query starts fresh (successful bodies live on in
// the caches; errors must not poison the key), then wake the waiters.
func (s *Server) complete(key string, fl *flight, body []byte, err error) {
	fl.body, fl.err = body, err
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(fl.done)
}

// Drain stops cold-path admission and waits for accepted simulations
// to finish. Call after the HTTP listener has shut down; in-flight
// requests complete, new ones were already refused at the listener.
func (s *Server) Drain() { s.pool.Drain() }

// Abort cancels running queries (each stops before its next
// simulation, and a wait for a slot ends at once) and then drains. The
// forced-shutdown path.
func (s *Server) Abort() {
	s.abort()
	s.pool.Drain()
}

// InFlight returns the number of open flights (cold or disk loads in
// progress).
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flights)
}

// Status is the /statusz document.
type Status struct {
	Schema        string  `json:"schema"`
	Commit        string  `json:"commit,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Queries struct {
		Hits      int64 `json:"hits"`
		DiskHits  int64 `json:"disk_hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Rejected  int64 `json:"rejected"`
		Failed    int64 `json:"failed"`
		InFlight  int   `json:"in_flight"`
	} `json:"queries"`

	// Pool counts queries (queued, running) and the simulations they
	// run now (at most Workers).
	Pool struct {
		Workers     int   `json:"workers"`
		QueueDepth  int   `json:"queue_depth"`
		Queued      int64 `json:"queued"`
		Running     int64 `json:"running"`
		Simulations int   `json:"simulations"`
	} `json:"pool"`

	ResultCache struct {
		Entries  int    `json:"entries"`
		Capacity int    `json:"capacity"`
		DiskDir  string `json:"disk_dir,omitempty"`
		DiskLen  int    `json:"disk_entries"`
	} `json:"result_cache"`

	// TraceCache sums the per-query trace caches: the request counters
	// over finished simulations, in_flight over running ones.
	TraceCache harness.TraceCacheStats `json:"trace_cache"`
}

// StatusNow snapshots the server's counters.
func (s *Server) StatusNow() Status {
	var st Status
	st.Schema = StatusSchema
	st.Commit = s.commit
	st.UptimeSeconds = time.Since(s.started).Seconds()
	st.Queries.Hits = s.hits.Load()
	st.Queries.DiskHits = s.diskHits.Load()
	st.Queries.Misses = s.misses.Load()
	st.Queries.Coalesced = s.coalesced.Load()
	st.Queries.Rejected = s.rejected.Load()
	st.Queries.Failed = s.failed.Load()
	st.Queries.InFlight = s.InFlight()
	st.Pool.Workers = s.workers
	st.Pool.QueueDepth = s.depth
	st.Pool.Queued = s.pool.Queued()
	st.Pool.Running = s.pool.Running()
	st.Pool.Simulations = s.slots.InUse()
	st.ResultCache.Entries = s.cache.len()
	st.ResultCache.Capacity = s.cache.max
	st.ResultCache.DiskDir = s.store.Dir()
	st.ResultCache.DiskLen = s.store.Len()
	st.TraceCache = s.traceStats()
	return st
}

// ServeHTTP routes the server's three endpoints: /query (GET or POST),
// /statusz, /healthz.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/query":
		s.handleQuery(w, r)
	case "/statusz":
		s.handleStatus(w, r)
	case "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	default:
		http.NotFound(w, r)
	}
}

// maxQueryBytes caps a POST /query body. A query document is well
// under 1 KiB; the cap keeps a client from making the decoder buffer
// an unbounded body.
const maxQueryBytes = 8 << 10

// handleQuery answers one query: 200 with the Record JSON (and an
// X-Dsm-Cache header naming the layer that answered), 400 on a
// malformed, unknown or over-long query (checkCost), 413 on a POST body over maxQueryBytes,
// 429 + Retry-After under backpressure, 500 on a simulation failure.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q harness.Query
	var err error
	switch r.Method {
	case http.MethodGet:
		q, err = queryFromURL(r)
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes))
		dec.DisallowUnknownFields()
		err = dec.Decode(&q)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "use GET with query parameters or POST a JSON query", http.StatusMethodNotAllowed)
		return
	}
	if err == nil {
		q = q.Normalize()
		err = q.Validate()
	}
	if err == nil {
		err = checkCost(q)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	body, src, err := s.Answer(r.Context(), q)
	switch {
	case errors.Is(err, ErrOverloaded):
		// Retry-After sizes the hint to the actual backlog: how long,
		// at the observed mean cold-run latency, until the pool drains
		// a slot for the retry.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away (or the server is aborting); 503 tells
		// a proxy the request may be retried elsewhere.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Dsm-Cache", string(src))
	w.Header().Set("X-Dsm-Key", ResultKey(q, s.commit))
	w.Write(body)
}

// checkCost refuses a valid query the server still will not run: more
// than twice DefaultSweepScales' scales. Each scale is a whole sweep,
// and a lone query may hold every simulation slot.
func checkCost(q harness.Query) error {
	if most := 2 * len(harness.DefaultSweepScales()); len(q.Scales) > most {
		return fmt.Errorf("serve: %d scales, at most %d", len(q.Scales), most)
	}
	return nil
}

// handleStatus renders the counter snapshot.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	buf, err := json.MarshalIndent(s.StatusNow(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, '\n'))
}

// queryFromURL decodes a GET query: ?experiment=fig5&apps=radix,lu&
// systems=ccnuma&fabric=ring&scale=8&scales=8,16&seed=7.
func queryFromURL(r *http.Request) (harness.Query, error) {
	var q harness.Query
	v := r.URL.Query()
	for name := range v {
		switch name {
		case "experiment", "apps", "systems", "fabric", "scale", "scales", "seed":
		default:
			return q, fmt.Errorf("serve: unknown query parameter %q", name)
		}
	}
	q.Experiment = v.Get("experiment")
	q.Fabric = v.Get("fabric")
	if s := v.Get("apps"); s != "" {
		q.Apps = strings.Split(s, ",")
	}
	if s := v.Get("systems"); s != "" {
		q.Systems = strings.Split(s, ",")
	}
	if s := v.Get("scale"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			return q, fmt.Errorf("serve: bad scale %q: %w", s, err)
		}
		q.Scale = n
	}
	if s := v.Get("scales"); s != "" {
		scales, err := harness.ParseScales(s)
		if err != nil {
			return q, fmt.Errorf("serve: %w", err)
		}
		q.Scales = scales
	}
	if s := v.Get("seed"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return q, fmt.Errorf("serve: bad seed %q: %w", s, err)
		}
		q.Seed = n
	}
	return q, nil
}

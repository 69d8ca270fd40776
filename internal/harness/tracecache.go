package harness

import (
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// TraceCache shares generated application traces across experiments.
// Workload generation is deterministic for a given (app, cpus, scale,
// seed), and replay never mutates a trace, so one materialized trace
// can back every system and every experiment that asks for the same
// workload.
//
// Requests are single-flight: when several workers ask for the same
// key concurrently, exactly one runs the generator (or the disk load)
// and the rest block until its result lands — without single-flight, a
// parallel sweep's workers would each regenerate the same workload and
// race to install it.
//
// A cache built with NewTraceCacheWithStore additionally reads through
// to a content-addressed on-disk trace store (internal/trace/store):
// misses try the store before generating, and generated traces are
// written back, so repeat CLI runs and sibling processes materialize
// workloads from disk instead of re-running generators.
//
// The zero value is unusable; a nil *TraceCache disables caching
// (every call generates afresh), which keeps the cache strictly
// opt-in for callers that want cold-generation timings.
type TraceCache struct {
	mu sync.Mutex
	// m is keyed directly on the store's content-address key — the
	// in-memory and on-disk tiers identify a workload by the same
	// (app, cpus, scale, seed) tuple by construction.
	m map[store.Key]*traceEntry

	// disk is the optional persistent tier (nil = memory only; a nil
	// *store.Store behaves as always-miss, so no nil checks downstream).
	disk *store.Store

	// Counters behind Stats(): how requests resolved. A request is
	// exactly one of hit (completed in-memory entry), coalesced
	// (joined an in-flight materialization), diskHit (this request led
	// a flight satisfied from the on-disk store) or generated (led a
	// flight that ran the generator). inFlight tracks flights whose
	// result has not landed yet.
	hits      atomic.Int64
	coalesced atomic.Int64
	diskHits  atomic.Int64
	generated atomic.Int64
	inFlight  atomic.Int64
}

// TraceCacheStats is a point-in-time snapshot of the cache's request
// counters (all zero for a nil cache).
type TraceCacheStats struct {
	// Hits served from a completed in-memory entry.
	Hits int64 `json:"hits"`
	// Coalesced requests that joined another request's in-flight
	// materialization instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// DiskHits are flights satisfied by the on-disk store.
	DiskHits int64 `json:"disk_hits"`
	// Generated are flights that ran a workload generator.
	Generated int64 `json:"generated"`
	// InFlight is the number of materializations currently running.
	InFlight int64 `json:"in_flight"`
}

// Stats snapshots the cache's request counters.
func (tc *TraceCache) Stats() TraceCacheStats {
	if tc == nil {
		return TraceCacheStats{}
	}
	return TraceCacheStats{
		Hits:      tc.hits.Load(),
		Coalesced: tc.coalesced.Load(),
		DiskHits:  tc.diskHits.Load(),
		Generated: tc.generated.Load(),
		InFlight:  tc.inFlight.Load(),
	}
}

// traceEntry is one in-flight or completed materialization. done closes
// when tr/err are final.
type traceEntry struct {
	done chan struct{}
	tr   *trace.Trace
	err  error
}

// NewTraceCache returns an empty in-memory cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{m: make(map[store.Key]*traceEntry)}
}

// NewTraceCacheWithStore returns a cache backed by an on-disk trace
// store. A nil store is equivalent to NewTraceCache.
func NewTraceCacheWithStore(st *store.Store) *TraceCache {
	tc := NewTraceCache()
	tc.disk = st
	return tc
}

// Len returns the number of completed cached traces.
func (tc *TraceCache) Len() int {
	if tc == nil {
		return 0
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	n := 0
	for _, e := range tc.m {
		select {
		case <-e.done:
			n++
		default:
		}
	}
	return n
}

// Trace returns the trace for (app, params) with its content address,
// materializing it (disk load, else generation) and caching it on first
// use; concurrent requests for the same key share one materialization.
// A nil receiver generates without caching.
func (tc *TraceCache) Trace(app apps.Info, p apps.Params) (*trace.Trace, telemetry.TraceRef, error) {
	key := store.Key{App: app.Name, CPUs: p.CPUs, Scale: p.Scale, Seed: p.Seed}
	ref := telemetry.TraceRef{App: key.App, CPUs: key.CPUs, Scale: key.Scale, Seed: key.Seed, Hash: key.Filename()}
	if tc == nil {
		tr, err := app.Generate(p)
		return tr, ref, err
	}
	tc.mu.Lock()
	if e, ok := tc.m[key]; ok {
		tc.mu.Unlock()
		select {
		case <-e.done:
			tc.hits.Add(1)
		default:
			tc.coalesced.Add(1)
		}
		<-e.done
		return e.tr, ref, e.err
	}
	e := &traceEntry{done: make(chan struct{})}
	tc.m[key] = e
	tc.inFlight.Add(1)
	tc.mu.Unlock()

	var hit bool
	e.tr, hit, e.err = tc.disk.LoadOrGenerate(key, func() (*trace.Trace, error) {
		return app.Generate(p)
	})
	switch {
	case e.err != nil:
		// Failed generations are not cached: drop the entry so a later
		// request (possibly under different conditions) can retry. The
		// waiters blocked on this flight still observe the error.
		tc.mu.Lock()
		delete(tc.m, key)
		tc.mu.Unlock()
	case hit:
		tc.diskHits.Add(1)
	default:
		tc.generated.Add(1)
	}
	tc.inFlight.Add(-1)
	close(e.done)
	return e.tr, ref, e.err
}

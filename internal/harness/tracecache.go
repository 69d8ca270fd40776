package harness

import (
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/trace"
)

// TraceCache shares generated application traces across experiments.
// Workload generation is deterministic for a given (app, cpus, scale,
// seed), and replay never mutates a trace, so one materialized trace
// can back every system and every experiment that asks for the same
// workload.
//
// Requests are single-flight: when several workers ask for the same
// key concurrently, exactly one runs the generator and the rest block
// until its result lands — without single-flight, a parallel sweep's
// workers would each regenerate the same workload and race to install
// it.
//
// The zero value is unusable. A query run without a cache of the
// caller's makes its own, so its traces are generated cold.
type TraceCache struct {
	mu sync.Mutex
	m  map[traceKey]*traceEntry

	// Counters behind Stats(): how requests resolved. A request is
	// exactly one of hit (completed entry), coalesced (joined an
	// in-flight generation) or generated (led a flight that ran the
	// generator). inFlight tracks flights whose result has not landed
	// yet.
	hits      atomic.Int64
	coalesced atomic.Int64
	generated atomic.Int64
	inFlight  atomic.Int64
}

// traceKey identifies one workload: the inputs that determine its
// trace.
type traceKey struct {
	app    string
	params apps.Params
}

// TraceCacheStats is a point-in-time snapshot of the cache's request
// counters (all zero for a nil cache).
type TraceCacheStats struct {
	// Hits served from a completed in-memory entry.
	Hits int64 `json:"hits"`
	// Coalesced requests that joined another request's in-flight
	// generation instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// Generated are flights that ran a workload generator.
	Generated int64 `json:"generated"`
	// InFlight is the number of generations currently running.
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
		Generated: tc.generated.Load(),
		InFlight:  tc.inFlight.Load(),
	}
}

// traceEntry is one in-flight or completed generation. done closes
// when tr/err are final.
type traceEntry struct {
	done chan struct{}
	tr   *trace.Trace
	err  error
}

// NewTraceCache returns an empty in-memory cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{m: make(map[traceKey]*traceEntry)}
}

// Trace returns the trace for (app, params), generating it and caching
// it on first use; concurrent requests for the same key share one
// generation.
func (tc *TraceCache) Trace(app apps.Info, p apps.Params) (*trace.Trace, error) {
	key := traceKey{app: app.Name, params: p}
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
		return e.tr, e.err
	}
	e := &traceEntry{done: make(chan struct{})}
	tc.m[key] = e
	tc.inFlight.Add(1)
	tc.mu.Unlock()

	e.tr, e.err = app.Generate(p)
	if e.err != nil {
		// Failed generations are not cached: drop the entry so a later
		// request (possibly under different conditions) can retry. The
		// waiters blocked on this flight still observe the error.
		tc.mu.Lock()
		delete(tc.m, key)
		tc.mu.Unlock()
	} else {
		tc.generated.Add(1)
	}
	tc.inFlight.Add(-1)
	close(e.done)
	return e.tr, e.err
}

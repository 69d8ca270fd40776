package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// countingApp returns an apps.Info whose generator counts invocations
// and whose output varies with params, so cache keying is observable.
func countingApp(name string, calls *atomic.Int64) apps.Info {
	return apps.Info{
		Name: name,
		Generate: func(p apps.Params) (*trace.Trace, error) {
			calls.Add(1)
			tr := &trace.Trace{
				Name:      fmt.Sprintf("%s-c%d-s%d-x%d", name, p.CPUs, p.Scale, p.Seed),
				CPUs:      make([]trace.Stream, p.CPUs),
				Footprint: 1 << 20,
			}
			for c := 0; c < p.CPUs; c++ {
				tr.CPUs[c] = trace.StreamOf(trace.Op{Kind: trace.Read, Arg: uint32(p.Scale + c)})
			}
			return tr, nil
		},
	}
}

// TestTraceCacheSingleFlight is the thundering-herd regression test:
// many workers requesting the same key concurrently must trigger
// exactly ONE generation, and all workers must get that one trace.
func TestTraceCacheSingleFlight(t *testing.T) {
	var calls atomic.Int64
	app := countingApp("herd", &calls)
	tc := NewTraceCache()

	const workers = 32
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
		got   [workers]*trace.Trace
	)
	start.Add(workers)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			<-gate // maximize overlap: all workers request at once
			tr, _, err := tc.Trace(app, apps.Params{CPUs: 4, Scale: 8})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = tr
		}(i)
	}
	start.Wait()
	close(gate)
	done.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("generator ran %d times under %d concurrent requests, want exactly 1", n, workers)
	}
	for i := 1; i < workers; i++ {
		if got[i] != got[0] {
			t.Errorf("worker %d got a different trace pointer", i)
		}
	}
	if tc.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", tc.Len())
	}
}

// TestTraceCacheKeysOnParams: distinct (cpus, scale, seed) tuples are
// distinct cache slots.
func TestTraceCacheKeysOnParams(t *testing.T) {
	var calls atomic.Int64
	app := countingApp("keys", &calls)
	tc := NewTraceCache()
	params := []apps.Params{
		{CPUs: 4, Scale: 8},
		{CPUs: 8, Scale: 8},
		{CPUs: 4, Scale: 16},
		{CPUs: 4, Scale: 8, Seed: 7},
	}
	for _, p := range params {
		for rep := 0; rep < 3; rep++ {
			if _, _, err := tc.Trace(app, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := calls.Load(); n != int64(len(params)) {
		t.Errorf("generator ran %d times, want %d (one per distinct key)", n, len(params))
	}
}

// TestTraceCacheErrorNotCached: a failed generation propagates to every
// waiter of that flight but does not poison the key.
func TestTraceCacheErrorNotCached(t *testing.T) {
	var calls atomic.Int64
	fail := true
	app := apps.Info{
		Name: "flaky",
		Generate: func(p apps.Params) (*trace.Trace, error) {
			calls.Add(1)
			if fail {
				return nil, fmt.Errorf("transient")
			}
			return &trace.Trace{Name: "ok", CPUs: make([]trace.Stream, p.CPUs)}, nil
		},
	}
	tc := NewTraceCache()
	if _, _, err := tc.Trace(app, apps.Params{CPUs: 2, Scale: 1}); err == nil {
		t.Fatal("expected error")
	}
	fail = false
	if _, _, err := tc.Trace(app, apps.Params{CPUs: 2, Scale: 1}); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("generator ran %d times, want 2 (failure not cached)", n)
	}
}

// TestTraceCacheReadsThroughStore: with a disk tier, the first process
// generation warms the store and a fresh cache (fresh process) loads
// from disk without generating.
func TestTraceCacheReadsThroughStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	app := countingApp("disk", &calls)
	p := apps.Params{CPUs: 4, Scale: 8}

	cold := NewTraceCacheWithStore(st)
	tr1, _, err := cold.Trace(app, p)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("cold path generated %d times, want 1", calls.Load())
	}

	warm := NewTraceCacheWithStore(st) // a "new process"
	tr2, _, err := warm.Trace(app, p)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("warm cache still ran the generator (%d calls total), want disk hit", n)
	}
	if !tr1.Equal(tr2) {
		t.Error("disk-loaded trace differs from generated")
	}
}

// TestTraceCacheNilDiskStore: NewTraceCacheWithStore(nil) degrades to
// the memory-only cache.
func TestTraceCacheNilDiskStore(t *testing.T) {
	var calls atomic.Int64
	tc := NewTraceCacheWithStore(nil)
	app := countingApp("nildisk", &calls)
	for i := 0; i < 2; i++ {
		if _, _, err := tc.Trace(app, apps.Params{CPUs: 2, Scale: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("generator ran %d times, want 1", calls.Load())
	}
}

// TestTraceCacheStats pins the observability counters: each request
// resolves as exactly one of hit / coalesced / disk-hit / generated,
// and the snapshot reflects the split.
func TestTraceCacheStats(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	app := countingApp("stats", &calls)
	p := apps.Params{CPUs: 4, Scale: 8}

	cold := NewTraceCacheWithStore(st)
	if _, _, err := cold.Trace(app, p); err != nil { // generated
		t.Fatal(err)
	}
	if _, _, err := cold.Trace(app, p); err != nil { // hit
		t.Fatal(err)
	}
	s := cold.Stats()
	if s.Generated != 1 || s.Hits != 1 || s.DiskHits != 0 || s.InFlight != 0 {
		t.Fatalf("cold cache stats = %+v, want 1 generated, 1 hit", s)
	}

	warm := NewTraceCacheWithStore(st) // fresh process, warm disk
	if _, _, err := warm.Trace(app, p); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.DiskHits != 1 || s.Generated != 0 {
		t.Fatalf("warm cache stats = %+v, want 1 disk hit, 0 generated", s)
	}

	// The herd case: 32 concurrent requests for one cold key split into
	// one leader (generated) and a mix of coalesced and late hits.
	herd := NewTraceCache()
	const workers = 32
	var wg sync.WaitGroup
	wg.Add(workers)
	gate := make(chan struct{})
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			<-gate
			if _, _, err := herd.Trace(app, apps.Params{CPUs: 2, Scale: 2}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	s = herd.Stats()
	if s.Generated != 1 {
		t.Fatalf("herd stats = %+v, want exactly 1 generated", s)
	}
	if s.Hits+s.Coalesced != workers-1 {
		t.Fatalf("herd stats = %+v: hits+coalesced = %d, want %d", s, s.Hits+s.Coalesced, workers-1)
	}
	if s.InFlight != 0 {
		t.Fatalf("herd stats = %+v: in-flight after completion", s)
	}

	// A nil cache answers zeroes rather than panicking.
	var nilCache *TraceCache
	if s := nilCache.Stats(); s != (TraceCacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", s)
	}
}

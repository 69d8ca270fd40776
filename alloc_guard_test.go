package repro

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/memory"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// allocCase is one allocation-guarded body with its ceiling. prepare
// does the set-up (trace builds, cache warm-up) outside the measured
// runs and returns the body of one op; the guard runs that body runs
// times and divides the heap counters by runs, as testing.B computes
// allocs/op and bytes/op. Allocation counts are deterministic, so runs
// only has to spread any amortized growth over many ops: thousands for
// a nanosecond probe, one for a whole sweep.
type allocCase struct {
	name          string
	runs          int
	prepare       func(t *testing.T) func()
	allocs, bytes uint64
}

// allocCases are the guarded bodies. Each ceiling is the allocs/op and
// bytes/op its case measured when the ceiling was set; lower one when
// a change makes its path leaner, and never raise one to let a
// regression pass.
var allocCases = []allocCase{
	{"CacheProbeBlock", 10000, cacheProbeBlock, 0, 0},
	{"CacheProbeInfinite", 10000, cacheProbeInfinite, 0, 0},
	{"CacheProbePage", 10000, cacheProbePage, 0, 0},
	{"EngineDispatch", 10000, engineDispatch, 0, 0},
	{"FaultPathCold", 20, faultPath(faultCold, dsm.CCNUMA()), 309, 469061},
	{"FaultPathCoherence", 20, faultPath(faultCoherence, dsm.CCNUMA()), 308, 178650},
	{"FaultPathCapacity", 20, faultPath(faultCapacity, dsm.CCNUMA()), 309, 763993},
	{"FaultPathSCOMA", 20, faultPath(faultCapacity, scomaSpec()), 351, 746077},
	{"TraceReplaySoA", 20, traceReplaySoA, 0, 0},
	{"Fig5Sweep", 1, fig5Sweep(nil), 12604, 4396256},
	{"Fig5SweepTelemetry", 1, fig5Sweep(&telemetry.Config{Timeline: true}), 16774, 5614640},
}

// TestBenchAllocationGuard runs every allocCase and fails if allocs/op
// OR bytes/op exceeds its ceiling by more than 20%. Wall time is
// deliberately not guarded — it varies with the host, and
// cmd/dsmbench measures it with repeated samples — but allocation
// counts and sizes are deterministic for a fixed code path, so a jump
// means an allocation crept back into a hot loop (or an existing one
// got fatter, which allocs/op alone misses).
func TestBenchAllocationGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping allocation guard in -short mode")
	}
	if raceEnabled {
		t.Skip("skipping allocation guard under the race detector (instrumentation allocates)")
	}
	for _, c := range allocCases {
		allocs, bytes := allocsPerRun(c.runs, c.prepare(t))
		// 20% headroom plus one absolute alloc, so zero-alloc ceilings
		// tolerate nothing but noise-level drift.
		if limit := c.allocs + c.allocs/5 + 1; allocs > limit {
			t.Errorf("%s: %d allocs/op, ceiling %d (limit %d): an allocation crept into the hot path",
				c.name, allocs, c.allocs, limit)
		} else {
			t.Logf("%s: %d allocs/op (ceiling %d)", c.name, allocs, c.allocs)
		}
		// Same 20% tolerance on bytes, with one cache line of absolute
		// headroom: size-class rounding can wobble small ceilings by a
		// few bytes without any code change.
		if limit := c.bytes + c.bytes/5 + 64; bytes > limit {
			t.Errorf("%s: %d bytes/op, ceiling %d (limit %d): hot-path allocations got fatter",
				c.name, bytes, c.bytes, limit)
		} else {
			t.Logf("%s: %d bytes/op (ceiling %d)", c.name, bytes, c.bytes)
		}
	}
}

// allocsPerRun runs op runs times and returns the heap allocations and
// bytes per run, from the same runtime counters testing.B reads.
func allocsPerRun(runs int, op func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}

// lcg advances a 64-bit linear congruential generator; the top bits feed
// the probe streams so every run probes the same pseudo-random sequence.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// cacheProbeBlock probes the finite set-associative block cache with a
// pseudo-random block stream twice the cache's capacity, mixing hits,
// misses and inserts — the per-access pattern of the CC-NUMA fill path.
func cacheProbeBlock(*testing.T) func() {
	c := cache.NewBlockCache(config.BlockCacheBytes, config.BlockCacheWays)
	span := uint64(2 * config.BlockCacheBytes / config.BlockBytes)
	x := uint64(1)
	return func() {
		x = lcg(x)
		blk := memory.Block((x >> 33) % span)
		if c.Lookup(blk) == cache.Invalid {
			c.Insert(blk, cache.Shared)
		}
	}
}

// cacheProbeInfinite probes the unbounded block cache of the
// perfect-CC-NUMA baseline, presized to the footprint like the machine
// builds it.
func cacheProbeInfinite(*testing.T) func() {
	const blocks = 1 << 16
	c := cache.NewInfiniteBlockCache()
	c.Reset(blocks)
	x := uint64(1)
	return func() {
		x = lcg(x)
		blk := memory.Block((x >> 33) % blocks)
		if c.Lookup(blk) == cache.Invalid {
			c.Insert(blk, cache.Shared)
		}
	}
}

// cacheProbePage drives the S-COMA page cache through its steady-state
// replacement cycle: touch, miss, evict LRU, allocate — the sequence the
// R-NUMA relocation path performs once the cache is warm.
func cacheProbePage(*testing.T) func() {
	const capacity, span = 16, 64
	c := cache.NewPageCacheSized(capacity*config.PageBytes, span)
	x := uint64(1)
	return func() {
		x = lcg(x)
		p := memory.Page((x >> 33) % span)
		if c.Touch(p) != nil {
			return
		}
		if c.Full() {
			c.EvictLRU()
		}
		c.Allocate(p)
	}
}

// engineDispatch is the scheduler's in-place dispatch cycle (peek,
// advance, requeue) over the default cluster's CPU population — one
// such cycle runs per trace op.
func engineDispatch(*testing.T) func() {
	s := engine.NewScheduler(config.DefaultCluster().TotalCPUs())
	var i int64
	return func() {
		c := s.Peek()
		c.Clock += i%7 + 1
		s.Requeue(c)
		i++
	}
}

// faultPath replays one fault trace on spec per op: machine
// construction plus the fault path of the trace's miss class.
func faultPath(which int, spec dsm.Spec) func(*testing.T) func() {
	return func(t *testing.T) func() {
		tr := faultTraces()[which]
		cl := config.DefaultCluster()
		tm, th := config.Default(), config.DefaultThresholds()
		return func() {
			if _, err := dsm.RunWithOptions(tr, spec, cl, tm, th, dsm.RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// streamSink keeps the streaming loop from being optimized away.
var streamSink uint64

// traceReplaySoA streams the capacity trace through its columnar form
// with one trace.Cursor per CPU, doing the dispatch-shaped per-op work
// Machine.Execute does before protocol work begins: load the kind,
// steer a switch on it, fold the gap into a running clock and consume
// the arg. One op walks every op of every CPU.
func traceReplaySoA(*testing.T) func() {
	tr := faultTraces()[faultCapacity]
	return func() {
		var clock, sink uint64
		for c := range tr.CPUs {
			cur := tr.CPUs[c].Cursor()
			for {
				op, ok := cur.Next()
				if !ok {
					break
				}
				clock += uint64(op.Gap)
				arg := uint64(op.Arg)
				switch op.Kind {
				case trace.Read, trace.Write:
					sink += arg ^ clock
				case trace.Barrier, trace.Lock, trace.Unlock:
					sink += arg + clock
				default:
					sink += clock
				}
			}
		}
		streamSink += sink
	}
}

// fig5Sweep regenerates the paper's Figure 5 comparison (all base
// systems over the seven applications) at scale 8, with telemetry tel
// (nil for none). Its own TraceCache is warmed by one sweep outside
// the measured runs, so an op is simulation and rendering, not
// workload generation.
func fig5Sweep(tel *telemetry.Config) func(*testing.T) func() {
	return func(t *testing.T) func() {
		opts := harness.Options{
			Scale: 8, Parallel: 4, Traces: harness.NewTraceCache(), Out: io.Discard, Telemetry: tel,
		}
		sweep := func() {
			if _, err := harness.RunByName("fig5", opts); err != nil {
				t.Fatal(err)
			}
		}
		sweep()
		return sweep
	}
}

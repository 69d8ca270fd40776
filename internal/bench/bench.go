// Package bench holds the simulator's hot-path benchmark bodies in an
// importable form: bench_test.go at the repo root wraps them for `go
// test -bench`, cmd/benchreport runs them via testing.Benchmark to emit
// the committed BENCH_*.json trajectory files, and the allocation-
// regression guard re-runs the guarded subset against the committed
// baseline.
//
// The cases cover the layers the performance work touches: cache probes
// (block cache, infinite block cache, page cache), the DSM fault path
// broken out by miss class (cold, coherence, capacity/conflict, and the
// S-COMA relocation/replacement path), engine dispatch, trace streaming
// in both memory layouts (the live columnar form vs the retired
// array-of-structs baseline), trace materialization cold (generator)
// vs warm (on-disk store), and the macrobenchmarks: the full Figure 5
// sweep and the scale-32 rung of the scale sweep.
package bench

import (
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/memory"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// Case is one named benchmark body.
type Case struct {
	Name string
	// Bench is the benchmark body, runnable by testing.Benchmark or
	// under a b.Run wrapper.
	Bench func(b *testing.B)
	// Guarded marks the case as part of the allocation-regression
	// guard: its allocs/op is compared against the committed baseline.
	Guarded bool
	// Macro marks the whole-system macrobenchmarks (full sweeps) that
	// cmd/benchreport -micro skips; they report the sim-cycles metric
	// used to derive simulated-cycles-per-second.
	Macro bool
}

// Cases returns every benchmark case in reporting order.
func Cases() []Case {
	return []Case{
		{Name: "CacheProbeBlock", Bench: CacheProbeBlock, Guarded: true},
		{Name: "CacheProbeInfinite", Bench: CacheProbeInfinite, Guarded: true},
		{Name: "CacheProbePage", Bench: CacheProbePage, Guarded: true},
		{Name: "EngineDispatch", Bench: EngineDispatch, Guarded: true},
		{Name: "FaultPathCold", Bench: FaultPathCold, Guarded: true},
		{Name: "FaultPathCoherence", Bench: FaultPathCoherence, Guarded: true},
		{Name: "FaultPathCapacity", Bench: FaultPathCapacity, Guarded: true},
		{Name: "FaultPathSCOMA", Bench: FaultPathSCOMA, Guarded: true},
		{Name: "TraceReplaySoA", Bench: TraceReplaySoA, Guarded: true},
		{Name: "TraceReplayAoS", Bench: TraceReplayAoS, Guarded: true},
		{Name: "StoreGenerateCold", Bench: StoreGenerateCold},
		{Name: "StoreMaterializeWarm", Bench: StoreMaterializeWarm},
		{Name: "Fig5Sweep", Bench: Fig5Sweep, Guarded: true, Macro: true},
		{Name: "Fig5SweepTelemetry", Bench: Fig5SweepTelemetry, Guarded: true, Macro: true},
		{Name: "ScaleSweep32", Bench: ScaleSweep32, Macro: true},
	}
}

// lcg advances a 64-bit linear congruential generator; the top bits feed
// the probe streams so every run probes the same pseudo-random sequence.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// CacheProbeBlock probes the finite set-associative block cache with a
// pseudo-random block stream twice the cache's capacity, mixing hits,
// misses and inserts — the per-access pattern of the CC-NUMA fill path.
func CacheProbeBlock(b *testing.B) {
	c := cache.NewBlockCache(config.BlockCacheBytes, config.BlockCacheWays)
	span := uint64(2 * config.BlockCacheBytes / config.BlockBytes)
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = lcg(x)
		blk := memory.Block((x >> 33) % span)
		if c.Lookup(blk) == cache.Invalid {
			c.Insert(blk, cache.Shared)
		}
	}
}

// CacheProbeInfinite probes the unbounded block cache of the
// perfect-CC-NUMA baseline, presized to the footprint like the machine
// builds it.
func CacheProbeInfinite(b *testing.B) {
	const blocks = 1 << 16
	c := cache.NewInfiniteBlockCacheSized(blocks)
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = lcg(x)
		blk := memory.Block((x >> 33) % blocks)
		if c.Lookup(blk) == cache.Invalid {
			c.Insert(blk, cache.Shared)
		}
	}
}

// CacheProbePage drives the S-COMA page cache through its steady-state
// replacement cycle: touch, miss, evict LRU, allocate — the sequence the
// R-NUMA relocation path performs once the cache is warm.
func CacheProbePage(b *testing.B) {
	const capacity, span = 16, 64
	c := cache.NewPageCacheSized(capacity*config.PageBytes, span)
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = lcg(x)
		p := memory.Page((x >> 33) % span)
		if c.Touch(p) != nil {
			continue
		}
		if c.Full() {
			c.EvictLRU()
		}
		c.Allocate(p)
	}
}

// EngineDispatch measures the scheduler's in-place dispatch cycle (peek,
// advance, requeue) over the default cluster's CPU population — one such
// cycle runs per trace op.
func EngineDispatch(b *testing.B) {
	s := engine.NewScheduler(config.DefaultCluster().TotalCPUs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Peek()
		c.Clock += int64(i%7) + 1
		s.Requeue(c)
	}
}

// ---------------------------------------------------------------------
// Fault-path benchmarks: each replays a synthetic trace engineered to
// drive the DSM fault path through one miss class. One benchmark
// iteration is a full replay; the trace-ops metric gives the per-op
// scale.

// faultTrace builds a trace in which CPU 0 first-touches pages [0, P)
// before the parallel phase (homing them at node 0), re-touches them
// right after the phase marker so later touchers do not re-home them,
// and then every CPU runs the per-CPU measure stream.
func faultTrace(name string, pages int, cl config.Cluster, measure func(r *trace.Recorder, cpu int)) *trace.Trace {
	cpus := cl.TotalCPUs()
	tr := &trace.Trace{
		Name:      name,
		CPUs:      make([]trace.Stream, cpus),
		Barriers:  2,
		Footprint: uint64(pages) * config.PageBytes,
	}
	for c := 0; c < cpus; c++ {
		r := trace.NewRecorder()
		if c == 0 {
			for p := 0; p < pages; p++ {
				r.Access(memory.Page(p).Addr(), false)
			}
		}
		r.Barrier(0)
		r.Phase()
		if c == 0 {
			// Claim post-phase first touch so the measure streams below
			// see remote pages, not first-touch re-homing.
			for p := 0; p < pages; p++ {
				r.Access(memory.Page(p).Addr(), false)
			}
		}
		r.Barrier(1)
		measure(r, c)
		tr.CPUs[c] = r.Finish()
	}
	return tr
}

// touchRange reads every block of pages [lo, hi).
func touchRange(r *trace.Recorder, lo, hi int) {
	for p := lo; p < hi; p++ {
		for blk := 0; blk < config.BlocksPerPage; blk++ {
			a := memory.Page(p).Addr() + memory.Addr(blk*config.BlockBytes)
			r.Access(a, false)
		}
	}
}

var (
	faultOnce sync.Once
	coldTr    *trace.Trace
	coherTr   *trace.Trace
	capTr     *trace.Trace
)

func buildFaultTraces() {
	cl := config.DefaultCluster()
	cpus := cl.TotalCPUs()

	// Cold: every CPU reads a private span of remote blocks exactly
	// once — all measured misses are cold remote misses (plus the soft
	// page faults that map the pages).
	const coldPerCPU = 8
	coldTr = faultTrace("bench-cold", coldPerCPU*cpus, cl, func(r *trace.Recorder, cpu int) {
		touchRange(r, cpu*coldPerCPU, (cpu+1)*coldPerCPU)
	})

	// Coherence: one CPU on each of two distinct nodes write-ping-pongs
	// over a small shared span; every refetch follows an invalidation.
	const sharedPages, rounds = 4, 8
	coherTr = faultTrace("bench-coherence", sharedPages, cl, func(r *trace.Recorder, cpu int) {
		if cpu != 0 && cpu != cl.CPUsPerNode {
			return
		}
		for round := 0; round < rounds; round++ {
			for p := 0; p < sharedPages; p++ {
				for blk := 0; blk < config.BlocksPerPage; blk++ {
					a := memory.Page(p).Addr() + memory.Addr(blk*config.BlockBytes)
					r.Access(a, true)
				}
			}
		}
	})

	// Capacity/conflict: every CPU sweeps a private remote span larger
	// than its share of the node's caches, several times — after the
	// first sweep every miss is a capacity/conflict refetch.
	const capPerCPU, sweeps = 16, 4
	capTr = faultTrace("bench-capacity", capPerCPU*cpus, cl, func(r *trace.Recorder, cpu int) {
		for s := 0; s < sweeps; s++ {
			touchRange(r, cpu*capPerCPU, (cpu+1)*capPerCPU)
		}
	})
}

// faultRun replays the trace on the spec and reports per-replay metrics.
func faultRun(b *testing.B, tr *trace.Trace, spec dsm.Spec) {
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	b.ReportAllocs()
	b.ResetTimer()
	var last int64
	for i := 0; i < b.N; i++ {
		sim, err := dsm.Run(tr, spec, cl, tm, th)
		if err != nil {
			b.Fatal(err)
		}
		last = sim.ExecCycles
	}
	b.ReportMetric(float64(tr.Ops()), "trace-ops")
	b.ReportMetric(float64(last), "sim-cycles")
}

// FaultPathCold measures the fault path on cold remote misses (plus the
// soft page faults that establish mappings) under CC-NUMA.
func FaultPathCold(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	faultRun(b, coldTr, dsm.CCNUMA())
}

// FaultPathCoherence measures the fault path on invalidation-driven
// coherence misses (dirty remote fetches and upgrades) under CC-NUMA.
func FaultPathCoherence(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	faultRun(b, coherTr, dsm.CCNUMA())
}

// FaultPathCapacity measures the fault path on capacity/conflict
// refetches under CC-NUMA.
func FaultPathCapacity(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	faultRun(b, capTr, dsm.CCNUMA())
}

// FaultPathSCOMA measures the R-NUMA relocation path on the capacity
// workload with a deliberately tiny page cache, so relocations and
// frame replacements (the pageop layer) dominate.
func FaultPathSCOMA(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	spec := dsm.RNUMA()
	spec.PageCacheBytes = 8 * config.PageBytes
	faultRun(b, capTr, spec)
}

// ---------------------------------------------------------------------
// Trace streaming benchmarks: the replay engine's per-op consumption
// pattern, isolated from protocol work, in both memory layouts.

// streamSink keeps the streaming loops from being optimized away.
var streamSink uint64

// The two TraceReplay benchmarks perform identical dispatch-shaped
// per-op work — load the kind, steer a switch on it, fold the gap into
// a running clock and consume the arg — which is what Machine.Execute
// does before protocol work begins. Only the memory layout and the
// reader differ.

// TraceReplaySoA streams the capacity trace through its columnar form
// (4 B/op: byte-wide kinds and gaps, 16-bit args, escaped large gaps
// and args)
// with one trace.Cursor per CPU, as Machine.Execute consumes it. One
// iteration walks every op of every CPU; the trace-ops metric gives the
// per-op scale.
func TraceReplaySoA(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	tr := capTr
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		var clock uint64
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
	}
	streamSink = sink
	b.ReportMetric(float64(tr.Ops()), "trace-ops")
}

// TraceReplayAoS is the pre-columnar baseline: the same dispatch-shaped
// work striding a per-CPU []trace.Op (12-byte padded structs, three
// times the columns' 4 B/op) with a range loop that keeps its index in a
// register. The AoS slices are materialized outside the timed region.
// A Cursor keeps its position in memory, so in this isolated
// sequential walk it costs more per op than the range loop; in
// Machine.Execute, which interleaves CPUs, positions live in memory
// either way.
func TraceReplayAoS(b *testing.B) {
	faultOnce.Do(buildFaultTraces)
	tr := capTr
	aos := make([][]trace.Op, len(tr.CPUs))
	for c := range tr.CPUs {
		aos[c] = tr.CPUs[c].Ops()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		var clock uint64
		for _, ops := range aos {
			for j := range ops {
				op := &ops[j]
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
	}
	streamSink = sink
	b.ReportMetric(float64(tr.Ops()), "trace-ops")
}

// ---------------------------------------------------------------------
// Trace store benchmarks: cold generation vs warm disk materialization
// of the same workload, at the same scale the Figure 5 macrobenchmark
// replays. Their ns/op ratio is the speedup a warm store buys every
// repeat run.

// storeBenchApp is the workload both store benchmarks materialize. fmm
// is the most generation-heavy of the paper's seven per emitted op (the
// generator really evaluates multipole interactions), which is exactly
// the shape of workload the store exists for; decode cost per op is
// layout-bound and app-independent, so other apps differ mainly in how
// much generation work the warm path skips.
const storeBenchApp = "fmm"

// storeBenchParams sizes the store benchmarks to the macro scale.
func storeBenchParams() apps.Params {
	return apps.Params{CPUs: config.DefaultCluster().TotalCPUs(), Scale: fig5Scale}
}

// StoreGenerateCold measures generating the workload from scratch —
// the cost every run of every worker paid before the trace store.
func StoreGenerateCold(b *testing.B) {
	info, err := apps.ByName(storeBenchApp)
	if err != nil {
		b.Fatal(err)
	}
	p := storeBenchParams()
	b.ReportAllocs()
	b.ResetTimer()
	var ops int
	for i := 0; i < b.N; i++ {
		tr, err := info.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		ops = tr.Ops()
	}
	b.ReportMetric(float64(ops), "trace-ops")
}

// StoreMaterializeWarm measures the same workload materialized from a
// warm on-disk store: one Load (read + checksum + columnar decode) per
// iteration.
func StoreMaterializeWarm(b *testing.B) {
	info, err := apps.ByName(storeBenchApp)
	if err != nil {
		b.Fatal(err)
	}
	p := storeBenchParams()
	dir, err := os.MkdirTemp("", "tracestore-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	key := store.Key{App: info.Name, CPUs: p.CPUs, Scale: p.Scale, Seed: p.Seed}
	tr, err := info.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Save(key, tr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ops int
	for i := 0; i < b.N; i++ {
		got, ok := st.Load(key)
		if !ok {
			b.Fatal("warm store missed")
		}
		ops = got.Ops()
	}
	b.ReportMetric(float64(ops), "trace-ops")
}

// ---------------------------------------------------------------------
// Macrobenchmark.

// fig5Scale matches benchScale in bench_test.go: one sweep iteration in
// the hundreds of milliseconds.
const fig5Scale = 8

// Fig5Sweep regenerates the paper's Figure 5 comparison (all base
// systems over the seven applications) at the benchmark scale, sharing
// generated traces across iterations via a TraceCache so the metric is
// simulator throughput, not workload generation. The sim-cycles metric
// is the total simulated cycles of one sweep; dividing it by seconds
// per iteration gives simulated-cycles-per-second.
func Fig5Sweep(b *testing.B) {
	traces := harness.NewTraceCache()
	var cycles int64
	run := func() {
		r, err := harness.Fig5(harness.Options{
			Scale: fig5Scale, Parallel: 4, Traces: traces, Out: io.Discard,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = 0
		for _, app := range r.AppOrder {
			for _, sys := range r.Systems {
				if run := r.Runs[app][sys]; run != nil {
					cycles += run.Stats.ExecCycles
				}
			}
		}
	}
	run() // warm the trace cache outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// Fig5SweepTelemetry is Fig5Sweep with time-resolved telemetry fully on
// (windowed series plus the event timeline) — the committed baseline
// pair pins the observability overhead: this case against Fig5Sweep is
// the "<10% slower with telemetry" budget, checked directly by
// TestTelemetryOverheadBudget.
func Fig5SweepTelemetry(b *testing.B) {
	traces := harness.NewTraceCache()
	var cycles int64
	run := func() {
		r, err := harness.Fig5(harness.Options{
			Scale: fig5Scale, Parallel: 4, Traces: traces, Out: io.Discard,
			Telemetry: &harness.TelemetryOptions{Timeline: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = 0
		for _, app := range r.AppOrder {
			for _, sys := range r.Systems {
				if run := r.Runs[app][sys]; run != nil {
					cycles += run.Stats.ExecCycles
				}
			}
		}
	}
	run() // warm the trace cache outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// ScaleSweep32 runs the scale-sweep experiment at problem scale 32 (all
// Figure 5 systems over the seven applications), the mid rung of the
// default 8..64 ladder — the macro answer to "how fast can we sweep a
// scenario end to end". Traces are shared across iterations like
// Fig5Sweep, so the metric is simulator throughput.
func ScaleSweep32(b *testing.B) {
	traces := harness.NewTraceCache()
	var cycles int64
	run := func() {
		r, err := harness.ScaleSweep(harness.Options{
			Scales: []int{32}, Parallel: 4, Traces: traces, Out: io.Discard,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = 0
		for _, app := range r.AppOrder {
			for _, sys := range r.Systems {
				if run := r.Runs[app][sys]; run != nil {
					cycles += run.Stats.ExecCycles
				}
			}
		}
	}
	run() // warm the trace cache outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

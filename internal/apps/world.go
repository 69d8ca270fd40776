// Package apps contains the shared-memory application generators: Go
// implementations of the seven SPLASH-2 codes the paper evaluates
// (barnes, cholesky, fmm, lu, ocean, radix, raytrace), plus synthetic
// microworkloads used by tests and ablations. Each application actually
// computes its result while recording the shared-memory accesses of every
// simulated processor into a dependence-preserving trace.
//
// Applications are written in a fork-join SPMD style against a World: a
// sequence of Parallel segments separated by Barriers. Within one segment
// the per-processor bodies either touch disjoint shared data or serialize
// through Locks, so generating them sequentially (CPU 0, then CPU 1, ...)
// produces one legal parallel interleaving. This mirrors how the paper's
// applications are structured and keeps trace generation deterministic.
// A segment whose bodies write only their own elements and read nothing
// another body writes in that segment may use ParallelIndep instead,
// which fans the bodies out over trace.EachCPU's worker pool: recorders
// are per-processor, so the trace and every computed value are
// byte-identical to the sequential schedule and only generation
// wall-clock changes. Such bodies may write disjoint elements of shared
// arrays, but must not name locks, allocate regions or emit barriers;
// the World panics if they try. Name a segment's locks before it.
//
// Every per-processor segment of the generators is a ParallelIndep one
// except these, which stay Parallel:
//
//   - barnes' tree insertion: bodies name hashed cell locks inside the
//     segment and grow one shared octree, whose shape follows the CPU
//     order;
//   - cholesky's diagonal factor: its owner names its queue lock inside
//     the body;
//   - ocean's vorticity smoothing: it smooths in place, reading
//     neighbours another body writes;
//   - synthetic writeshared: its bodies read and write random elements
//     of one shared region, by design.
package apps

import (
	"repro/internal/memory"
	"repro/internal/trace"
)

// World owns the simulated shared address space and the per-processor
// trace recorders of one application run.
type World struct {
	name  string
	ncpu  int
	alloc *memory.Allocator
	recs  []*trace.Recorder

	nextBarrier int
	nextLock    int
	lockIDs     map[string]int

	// indep is set while a ParallelIndep segment runs, whose bodies
	// must leave the World's own state alone.
	indep bool
}

// NewWorld creates a world for an application running on ncpus
// processors.
func NewWorld(name string, ncpus int) *World {
	if ncpus <= 0 {
		panic("apps: world needs at least one cpu")
	}
	w := &World{
		name:    name,
		ncpu:    ncpus,
		alloc:   memory.NewAllocator(),
		recs:    make([]*trace.Recorder, ncpus),
		lockIDs: make(map[string]int),
	}
	for i := range w.recs {
		w.recs[i] = trace.NewRecorder()
	}
	return w
}

// NumCPUs returns the processor count.
func (w *World) NumCPUs() int { return w.ncpu }

// Ctx is the per-processor view of the world inside a Parallel segment.
type Ctx struct {
	// CPU is this processor's id in [0, N).
	CPU int
	// N is the total processor count.
	N int

	w *World
	r *trace.Recorder
}

// Parallel runs body once per processor. Bodies must confine themselves
// to their data partition or serialize through locks; they must not call
// Barrier (use World.Barrier between segments).
func (w *World) Parallel(body func(c *Ctx)) {
	for i := 0; i < w.ncpu; i++ {
		body(&Ctx{CPU: i, N: w.ncpu, w: w, r: w.recs[i]})
	}
}

// ParallelIndep is Parallel for bodies that write only their own
// elements and read nothing another body writes in the segment. Each
// body may record (recorders are per-processor), charge compute, read
// shared data and write disjoint elements of shared arrays, but must not
// name locks, allocate regions or emit barriers: those mutate the World
// and panic here. The bodies fan out over trace.EachCPU's worker pool,
// so the trace is byte-identical to the sequential schedule and only
// generation wall-clock changes. Bodies with real cross-processor
// dependences within the segment must keep using Parallel.
func (w *World) ParallelIndep(body func(c *Ctx)) {
	w.indep = true
	trace.EachCPU(w.ncpu, func(i int) {
		body(&Ctx{CPU: i, N: w.ncpu, w: w, r: w.recs[i]})
	})
	w.indep = false
}

// serialOnly panics if a ParallelIndep segment is running: op would
// mutate World state the concurrent bodies share.
func (w *World) serialOnly(op string) {
	if w.indep {
		panic("apps: " + op + " inside ParallelIndep; do it before the segment")
	}
}

// Serial runs body on processor 0 only (sequential sections).
func (w *World) Serial(body func(c *Ctx)) {
	body(&Ctx{CPU: 0, N: w.ncpu, w: w, r: w.recs[0]})
}

// Barrier emits a global barrier on every processor.
func (w *World) Barrier() {
	w.serialOnly("Barrier")
	id := w.nextBarrier
	w.nextBarrier++
	for _, r := range w.recs {
		r.Barrier(id)
	}
}

// Phase emits the start-of-parallel-phase marker on every processor;
// first-touch placement applies from here on. A barrier precedes the
// markers so that sequential initialization is complete — in both data
// and simulated time — before any processor enters the parallel phase.
func (w *World) Phase() {
	w.Barrier()
	for _, r := range w.recs {
		r.Phase()
	}
}

// LockID names a lock, creating it on first use. It panics inside
// ParallelIndep, whose bodies run concurrently.
func (w *World) LockID(name string) int {
	w.serialOnly("LockID")
	id, ok := w.lockIDs[name]
	if !ok {
		id = w.nextLock
		w.nextLock++
		w.lockIDs[name] = id
	}
	return id
}

// Finish validates and returns the completed trace.
func (w *World) Finish() (*trace.Trace, error) {
	t := &trace.Trace{
		Name:      w.name,
		CPUs:      make([]trace.Stream, w.ncpu),
		Barriers:  w.nextBarrier,
		Locks:     w.nextLock,
		Footprint: w.alloc.Bytes(),
	}
	trace.EachCPU(w.ncpu, func(i int) { t.CPUs[i] = w.recs[i].Finish() })
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Compute charges cycles of pure computation to this processor.
func (c *Ctx) Compute(cycles int) { c.r.Compute(cycles) }

// Lock acquires the named global lock.
func (c *Ctx) Lock(id int) { c.r.Lock(id) }

// Unlock releases the named global lock.
func (c *Ctx) Unlock(id int) { c.r.Unlock(id) }

// Access records a raw shared-memory access (for AoS data structures).
func (c *Ctx) Access(addr memory.Addr, write bool) { c.r.Access(addr, write) }

// region allocates a named shared region; allocation order fixes the
// address map, so it panics inside ParallelIndep.
func (w *World) region(name string, bytes uint64) memory.Region {
	w.serialOnly("region allocation")
	return w.alloc.Alloc(name, bytes)
}

// F64 is a shared array of float64 backed by real data.
type F64 struct {
	Reg  memory.Region
	Data []float64
}

// AllocF64 allocates a shared float64 array.
func (w *World) AllocF64(name string, n int) *F64 {
	return &F64{
		Reg:  w.region(name, uint64(n)*8),
		Data: make([]float64, n),
	}
}

// Len returns the element count.
func (a *F64) Len() int { return len(a.Data) }

// Addr returns the address of element i.
func (a *F64) Addr(i int) memory.Addr { return a.Reg.Start + memory.Addr(i*8) }

// Load reads element i through the memory system.
func (c *Ctx) Load(a *F64, i int) float64 {
	c.r.Access(a.Addr(i), false)
	return a.Data[i]
}

// Store writes element i through the memory system.
func (c *Ctx) Store(a *F64, i int, v float64) {
	c.r.Access(a.Addr(i), true)
	a.Data[i] = v
}

// I64 is a shared array of int64 backed by real data.
type I64 struct {
	Reg  memory.Region
	Data []int64
}

// AllocI64 allocates a shared int64 array.
func (w *World) AllocI64(name string, n int) *I64 {
	return &I64{
		Reg:  w.region(name, uint64(n)*8),
		Data: make([]int64, n),
	}
}

// Len returns the element count.
func (a *I64) Len() int { return len(a.Data) }

// Addr returns the address of element i.
func (a *I64) Addr(i int) memory.Addr { return a.Reg.Start + memory.Addr(i*8) }

// I32 is a shared array of int32 backed by real data (radix keys).
type I32 struct {
	Reg  memory.Region
	Data []int32
}

// AllocI32 allocates a shared int32 array.
func (w *World) AllocI32(name string, n int) *I32 {
	return &I32{
		Reg:  w.region(name, uint64(n)*4),
		Data: make([]int32, n),
	}
}

// Len returns the element count.
func (a *I32) Len() int { return len(a.Data) }

// Addr returns the address of element i.
func (a *I32) Addr(i int) memory.Addr { return a.Reg.Start + memory.Addr(i*4) }

// LoadI32 reads element i through the memory system.
func (c *Ctx) LoadI32(a *I32, i int) int32 {
	c.r.Access(a.Addr(i), false)
	return a.Data[i]
}

// StoreI32 writes element i through the memory system.
func (c *Ctx) StoreI32(a *I32, i int, v int32) {
	c.r.Access(a.Addr(i), true)
	a.Data[i] = v
}

// Rec is a shared array-of-structures region with a fixed element size;
// applications keep the actual field data in Go slices and record
// accesses per field through At.
type Rec struct {
	Reg       memory.Region
	ElemBytes int
	N         int
}

// AllocRec allocates an AoS region of n records of elemBytes each,
// rounded up so records do not straddle blocks unnecessarily.
func (w *World) AllocRec(name string, n, elemBytes int) *Rec {
	return &Rec{
		Reg:       w.region(name, uint64(n)*uint64(elemBytes)),
		ElemBytes: elemBytes,
		N:         n,
	}
}

// At returns the address of byte offset off inside record i.
func (r *Rec) At(i, off int) memory.Addr {
	return r.Reg.Start + memory.Addr(i*r.ElemBytes+off)
}

// TouchRec records an access to a field range of record i. width is the
// field size in bytes; multi-block fields record one access per block.
func (c *Ctx) TouchRec(r *Rec, i, off, width int, write bool) {
	c.TouchRange(r.At(i, off), width, write)
}

// TouchRange records one access per coherence block over [start,
// start+bytes). It models a kernel that walks a range whose blocks each
// miss at most once and then stay L1-resident (the kernel's working set
// fits the processor cache), which is how blocked dense kernels behave.
func (c *Ctx) TouchRange(start memory.Addr, bytes int, write bool) {
	c.r.AccessRange(start, bytes, write)
}

// rng is a small deterministic linear congruential generator so traces
// are reproducible across runs and platforms.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s
}

// intn returns a deterministic value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("apps: intn on non-positive n")
	}
	return int((r.next() >> 17) % uint64(n))
}

// float64 returns a deterministic value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

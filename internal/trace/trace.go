// Package trace defines the memory-access trace format the application
// generators produce and the replay engine consumes.
//
// Traces are per-processor streams of block-grain operations. Consecutive
// accesses to the same coherence block are coalesced by the Recorder into
// a single Read or Write op (a run that both reads and writes emits a
// Write, since the block must be fetched exclusively either way); the
// cycles spent computing on in-cache data between block touches are
// carried as a compute gap on the next op. Synchronization (barriers,
// locks) appears inline so the replay engine can preserve inter-processor
// dependences in simulated time.
//
// # Columnar representation
//
// Each processor's stream is stored column-wise (struct of arrays), with
// no column wider than its values need: a Stream holds Kinds ([]Kind,
// one byte per op), Gaps ([]uint8, one byte per op), Args ([]uint16, two
// bytes per op) and the escape columns BigGaps and BigArgs ([]uint32) —
// 4 B/op of payload, a third of the 12 B of a padded Op row. Almost
// every compute gap is under 255 cycles, so the gap column stores it in
// one byte; the value 255 is an escape meaning "the gap is the next
// entry of BigGaps", which holds the few large gaps in op order. Args
// are block numbers and sync ids. Every paper input's block numbers fit
// in 16 bits except radix at scales 1 and 2, so the arg column escapes
// the same way: 65535 means "the arg is the next entry of BigArgs". An
// arg must fit in 32 bits (the Recorder panics on one that does not).
// Generation appends into fixed-size column chunks through the
// Recorder, which gathers them into exact-length columns at Finish so
// no append slack stays resident, and the on-disk format of trace/store
// serializes each column independently so per-CPU sections encode and
// decode in parallel.
//
// Cursor is the one sequential reader: replay, validation, comparison
// and encoding all walk a stream through it, and it alone resolves the
// gap and arg escapes. The Op struct is the row it yields;
// Stream.Append scatters a row onto the columns, the convenient form for
// tests and hand-built traces.
package trace

import (
	"fmt"

	"repro/internal/memory"
)

// Kind is the operation type of one trace op.
type Kind uint8

const (
	// Read fetches a block with read intent.
	Read Kind = iota
	// Write fetches a block with write (exclusive) intent.
	Write
	// Barrier waits for all processors to arrive at the same barrier id.
	Barrier
	// Lock acquires the mutex with the given id.
	Lock
	// Unlock releases the mutex with the given id.
	Unlock
	// Phase marks the start of the parallel phase: first-touch page
	// placement applies to accesses after this marker.
	Phase
	// Pad carries trailing compute time with no memory or sync effect.
	Pad

	// KindCount is the number of valid kinds (decoder bound).
	KindCount = int(Pad) + 1
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Barrier:
		return "barrier"
	case Lock:
		return "lock"
	case Unlock:
		return "unlock"
	case Phase:
		return "phase"
	case Pad:
		return "pad"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is the row-at-a-time view of one trace operation. For Read/Write,
// Arg is the global block number; for Barrier/Lock/Unlock it is the
// barrier or lock id. Gap is the compute time in cycles spent before
// this op issues.
type Op struct {
	Kind Kind
	Gap  uint32
	Arg  uint32
}

// GapEscape in the Gaps column means the op's gap did not fit in a byte:
// it is the next unread entry of BigGaps.
const GapEscape = 1<<8 - 1

// ArgEscape in the Args column means the op's arg did not fit in 16
// bits: it is the next unread entry of BigArgs.
const ArgEscape = 1<<16 - 1

// Stream is one processor's op sequence in columnar form. Kinds, Gaps
// and Args always have equal length, and index i across them is op i;
// BigGaps holds one entry per GapEscape in Gaps and BigArgs one entry
// per ArgEscape in Args, each in op order.
type Stream struct {
	Kinds   []Kind
	Gaps    []uint8
	BigGaps []uint32
	Args    []uint16
	BigArgs []uint32
}

// StreamOf builds a stream from rows (test and hand-built-trace helper).
func StreamOf(ops ...Op) Stream {
	var s Stream
	for _, op := range ops {
		s.Append(op)
	}
	return s
}

// Len returns the op count.
func (s Stream) Len() int { return len(s.Kinds) }

// Append scatters one row onto the columns.
func (s *Stream) Append(op Op) {
	s.Kinds = append(s.Kinds, op.Kind)
	if op.Gap < GapEscape {
		s.Gaps = append(s.Gaps, uint8(op.Gap))
	} else {
		s.Gaps = append(s.Gaps, GapEscape)
		s.BigGaps = append(s.BigGaps, op.Gap)
	}
	if op.Arg < ArgEscape {
		s.Args = append(s.Args, uint16(op.Arg))
	} else {
		s.Args = append(s.Args, ArgEscape)
		s.BigArgs = append(s.BigArgs, op.Arg)
	}
}

// Ops materializes the stream as rows (tests and the AoS baseline
// benchmark; the replay engine streams the columns through a Cursor).
func (s Stream) Ops() []Op {
	out := make([]Op, 0, s.Len())
	for c := s.Cursor(); ; {
		op, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, op)
	}
}

// Equal reports whether two streams hold the same op sequence.
func (s Stream) Equal(o Stream) bool {
	if s.Len() != o.Len() {
		return false
	}
	a, b := s.Cursor(), o.Cursor()
	for {
		x, ok := a.Next()
		y, _ := b.Next()
		if x != y {
			return false
		}
		if !ok {
			return true
		}
	}
}

// check reports a stream whose columns disagree: ragged lengths, or an
// escape count that does not match BigGaps or BigArgs. Cursor relies on
// all three.
func (s Stream) check() error {
	if len(s.Gaps) != len(s.Kinds) || len(s.Args) != len(s.Kinds) {
		return fmt.Errorf("ragged columns: %d kinds, %d gaps, %d args", len(s.Kinds), len(s.Gaps), len(s.Args))
	}
	if n := count(s.Gaps, GapEscape); n != len(s.BigGaps) {
		return fmt.Errorf("%d escaped gaps but %d big gaps", n, len(s.BigGaps))
	}
	if n := count(s.Args, ArgEscape); n != len(s.BigArgs) {
		return fmt.Errorf("%d escaped args but %d big args", n, len(s.BigArgs))
	}
	return nil
}

// count returns how many entries of col equal v.
func count[T comparable](col []T, v T) int {
	n := 0
	for _, x := range col {
		if x == v {
			n++
		}
	}
	return n
}

// Cursor iterates a stream row by row, resolving gap and arg escapes.
// The columns are shared with the underlying stream, not copied. It is
// the replay engine's per-op reader, so Next stays within the
// compiler's inlining budget and never allocates (CI checks the
// inlining).
type Cursor struct {
	// The columns are fields of their own, not a Stream: indexing
	// through a nested struct costs Next enough inlining budget that a
	// second escape branch would push it over.
	kinds   []Kind
	gaps    []uint8
	args    []uint16
	bigGaps []uint32
	bigArgs []uint32
	i       int // next op
	gi      int // next BigGaps entry
	ai      int // next BigArgs entry
}

// Cursor returns an iterator positioned before the first op.
func (s Stream) Cursor() Cursor {
	return Cursor{kinds: s.Kinds, gaps: s.Gaps, args: s.Args, bigGaps: s.BigGaps, bigArgs: s.BigArgs}
}

// Next returns the next op, or ok=false past the end. The row is built
// once from the narrow columns and its escapes patched in place rather
// than through a helper call: a call that is not itself inlined costs
// more than Go's whole inlining budget, and each branch is two
// instructions on a path few ops take.
func (c *Cursor) Next() (op Op, ok bool) {
	i := c.i
	if i >= len(c.kinds) {
		return Op{}, false
	}
	c.i = i + 1
	op = Op{Kind: c.kinds[i], Gap: uint32(c.gaps[i]), Arg: uint32(c.args[i])}
	if op.Gap == GapEscape {
		op.Gap = c.bigGaps[c.gi]
		c.gi++
	}
	if op.Arg == ArgEscape {
		op.Arg = c.bigArgs[c.ai]
		c.ai++
	}
	return op, true
}

// Trace is a complete multi-processor trace.
type Trace struct {
	// Name identifies the generating application and its parameters.
	Name string

	// CPUs holds one columnar op stream per processor.
	CPUs []Stream

	// Barriers is the number of distinct barrier episodes (for
	// validation).
	Barriers int

	// Locks is the number of distinct lock ids used.
	Locks int

	// Footprint is the shared bytes allocated by the generator.
	Footprint uint64
}

// NumCPUs returns the processor count of the trace.
func (t *Trace) NumCPUs() int { return len(t.CPUs) }

// Ops returns the total op count over all processors.
func (t *Trace) Ops() int {
	n := 0
	for i := range t.CPUs {
		n += t.CPUs[i].Len()
	}
	return n
}

// Equal reports whether two traces are identical in metadata and op
// content (store round-trip check).
func (t *Trace) Equal(o *Trace) bool {
	if t.Name != o.Name || t.Barriers != o.Barriers || t.Locks != o.Locks ||
		t.Footprint != o.Footprint || len(t.CPUs) != len(o.CPUs) {
		return false
	}
	for i := range t.CPUs {
		if !t.CPUs[i].Equal(o.CPUs[i]) {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: every stream's columns must
// agree, barrier sequences must be identical across processors (same
// ids in the same order), every lock must be released by its acquirer
// before the next lock op of that processor uses it again, and each
// processor must hold at most one lock at a time per id.
func (t *Trace) Validate() error {
	var ref []uint32
	for cpu := range t.CPUs {
		if err := t.CPUs[cpu].check(); err != nil {
			return fmt.Errorf("trace %s: cpu %d: %w", t.Name, cpu, err)
		}
		var barriers []uint32
		held := map[uint32]bool{}
		c := t.CPUs[cpu].Cursor()
		for i := 0; ; i++ {
			op, ok := c.Next()
			if !ok {
				break
			}
			switch op.Kind {
			case Barrier:
				barriers = append(barriers, op.Arg)
			case Lock:
				if held[op.Arg] {
					return fmt.Errorf("trace %s: cpu %d op %d: recursive lock %d", t.Name, cpu, i, op.Arg)
				}
				held[op.Arg] = true
			case Unlock:
				if !held[op.Arg] {
					return fmt.Errorf("trace %s: cpu %d op %d: unlock of unheld lock %d", t.Name, cpu, i, op.Arg)
				}
				delete(held, op.Arg)
			}
		}
		if len(held) != 0 {
			return fmt.Errorf("trace %s: cpu %d ends holding %d locks", t.Name, cpu, len(held))
		}
		if cpu == 0 {
			ref = barriers
		} else if len(barriers) != len(ref) {
			return fmt.Errorf("trace %s: cpu %d passes %d barriers, cpu 0 passes %d",
				t.Name, cpu, len(barriers), len(ref))
		} else {
			for i := range barriers {
				if barriers[i] != ref[i] {
					return fmt.Errorf("trace %s: cpu %d barrier %d is id %d, cpu 0 has id %d",
						t.Name, cpu, i, barriers[i], ref[i])
				}
			}
		}
	}
	return nil
}

// Recorder builds one processor's op stream with same-block run
// coalescing, appending into fixed-capacity column chunks that Finish
// gathers into the stream. It is the only way application generators
// should emit memory references.
//
// Args are stored in 16 bits with an escape to 32: recording a block
// number at or above 2^32 (a shared address space beyond 256 GiB), or a
// negative or oversized sync id, panics with a message naming the op
// and the value.
type Recorder struct {
	// The stream grows in chunks, not by reslicing one set of columns:
	// append's 1.25x growth on large slices leaves about five times the
	// finished stream behind as garbage, which set the heap's high-water
	// mark wherever a collection happened to catch it. done holds the
	// filled chunks in op order and cur the one being filled; Finish
	// gathers them into exact-length columns.
	done []Stream
	cur  Stream

	// pending is compute time accumulated before the next emitted op.
	pending uint64
	// runGap is time accumulated during the active run (merged L1 hits
	// and interleaved compute); it becomes pending when the run flushes,
	// since it elapses after the run's fetch.
	runGap uint64

	runValid bool
	runBlock memory.Block
	runWrite bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Chunk capacities in ops: a recorder's first chunk holds
// firstChunkOps, and each later one twice its predecessor up to
// maxChunkOps (16 KiB of columns), so short streams stay small and long
// ones add one fixed-size chunk at a time.
const (
	firstChunkOps = 256
	maxChunkOps   = 4096
)

// push appends one row to the current chunk, starting a new chunk when
// it is full.
func (r *Recorder) push(op Op) {
	if len(r.cur.Kinds) == cap(r.cur.Kinds) {
		r.nextChunk()
	}
	r.cur.Append(op)
}

// nextChunk retires the full current chunk and starts an empty one.
func (r *Recorder) nextChunk() {
	n := firstChunkOps
	if c := cap(r.cur.Kinds); c > 0 {
		r.done = append(r.done, r.cur)
		n = min(2*c, maxChunkOps)
	}
	r.cur = Stream{Kinds: make([]Kind, 0, n), Gaps: make([]uint8, 0, n), Args: make([]uint16, 0, n)}
}

// gather concatenates one column of the chunks into a slice of exactly
// their total length; no entries gives nil.
func gather[T any](chunks []Stream, col func(*Stream) []T) []T {
	n := 0
	for i := range chunks {
		n += len(col(&chunks[i]))
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for i := range chunks {
		out = append(out, col(&chunks[i])...)
	}
	return out
}

const maxGap = 1<<32 - 1

// maxArg is the largest block number or sync id a stream can hold: a
// 32-bit block number covers 256 GiB of shared address space, and the
// largest paper input at scale 1 uses 17 bits.
const maxArg = 1<<32 - 1

// emit appends an op carrying the pending gap, splitting oversized gaps
// into leading Pad ops. It panics if arg does not fit in 32 bits.
func (r *Recorder) emit(k Kind, arg uint64) {
	if arg > maxArg {
		panic(fmt.Sprintf("trace: %v arg %d does not fit in 32 bits (block numbers cover 256 GiB)", k, arg))
	}
	for r.pending > maxGap {
		r.push(Op{Kind: Pad, Gap: maxGap})
		r.pending -= maxGap
	}
	r.push(Op{Kind: k, Gap: uint32(r.pending), Arg: uint32(arg)})
	r.pending = 0
}

// flushRun emits the coalesced run, if any; the time spent inside the
// run carries over as the next op's gap.
func (r *Recorder) flushRun() {
	if !r.runValid {
		return
	}
	k := Read
	if r.runWrite {
		k = Write
	}
	r.emit(k, uint64(r.runBlock))
	r.pending = r.runGap
	r.runGap = 0
	r.runValid = false
}

// Access records a read or write of the block containing addr. Same-block
// consecutive accesses merge; each merged access contributes one cycle of
// compute gap (the L1 hit).
func (r *Recorder) Access(addr memory.Addr, write bool) {
	b := addr.Block()
	if r.runValid && b == r.runBlock {
		r.runWrite = r.runWrite || write
		r.runGap++ // the hit costs a cycle of pipeline time
		return
	}
	r.flushRun()
	r.runValid = true
	r.runBlock = b
	r.runWrite = write
}

// Compute adds cycles of pure computation. Compute interleaved with
// same-block accesses does not break the run: the block stays cached
// across it.
func (r *Recorder) Compute(cycles int) {
	if cycles <= 0 {
		return
	}
	if r.runValid {
		r.runGap += uint64(cycles)
	} else {
		r.pending += uint64(cycles)
	}
}

// Barrier records arrival at barrier id.
func (r *Recorder) Barrier(id int) {
	r.flushRun()
	r.emit(Barrier, uint64(id))
}

// Lock records acquisition of lock id.
func (r *Recorder) Lock(id int) {
	r.flushRun()
	r.emit(Lock, uint64(id))
}

// Unlock records release of lock id.
func (r *Recorder) Unlock(id int) {
	r.flushRun()
	r.emit(Unlock, uint64(id))
}

// Phase records the start-of-parallel-phase marker.
func (r *Recorder) Phase() {
	r.flushRun()
	r.emit(Phase, 0)
}

// Finish flushes any pending run and returns the columnar stream, its
// chunks gathered into columns of capacity equal to their length so no
// slack stays resident. The recorder must not be used afterwards.
func (r *Recorder) Finish() Stream {
	r.flushRun()
	if r.pending > 0 {
		// Trailing pure compute only matters for execution time; carry
		// it on a Pad op.
		r.emit(Pad, 0)
	}
	chunks := append(r.done, r.cur)
	s := Stream{
		Kinds:   gather(chunks, func(c *Stream) []Kind { return c.Kinds }),
		Gaps:    gather(chunks, func(c *Stream) []uint8 { return c.Gaps }),
		BigGaps: gather(chunks, func(c *Stream) []uint32 { return c.BigGaps }),
		Args:    gather(chunks, func(c *Stream) []uint16 { return c.Args }),
		BigArgs: gather(chunks, func(c *Stream) []uint32 { return c.BigArgs }),
	}
	// Drop the chunks: the recorder may outlive the call (a World keeps
	// its recorders) and must not pin them.
	r.done, r.cur = nil, Stream{}
	return s
}

// Len returns the number of ops emitted so far (excluding a pending run).
func (r *Recorder) Len() int {
	n := r.cur.Len()
	for _, c := range r.done {
		n += c.Len()
	}
	return n
}

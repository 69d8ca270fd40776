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
// no column wider than its values need: a Stream holds Heads ([]uint8,
// one byte per op), Args ([]uint16, two bytes per op) and the escape
// column Wides ([]uint32) — 3 B/op of payload plus 4 B per escaped
// value, a quarter of the 12 B of a padded Op row. A head packs the
// op's kind into its low 3 bits and its compute gap into the high 5.
// Almost every gap the generators leave is under 31 cycles, so the gap
// field holds it directly; the field value 31 is an escape meaning "the
// gap is the next entry of Wides". Args are block numbers and sync ids.
// Every paper input's block numbers fit in 16 bits except radix at
// scales 1 and 2, so the arg column escapes into the same column: 65535
// means "the arg is the next entry of Wides". Wides holds the escaped
// values in op order, an op's gap before its arg. An arg must fit in 32
// bits (the Recorder panics on one that does not). Generation appends
// into fixed-size column chunks through the Recorder, which gathers
// them into exact-length columns at Finish so no append slack stays
// resident.
//
// Cursor is the one sequential reader: replay, validation and
// comparison all walk a stream through it, and it alone resolves the
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

// KindBits is the width of the kind field in the low bits of a head
// byte; the gap field takes the rest.
const KindBits = 3

// GapEscape in a head's gap field means the op's gap did not fit in 5
// bits: it is the next unread entry of Wides.
const GapEscape = 1<<(8-KindBits) - 1

// ArgEscape in the Args column means the op's arg did not fit in 16
// bits: it is the next unread entry of Wides.
const ArgEscape = 1<<16 - 1

// Stream is one processor's op sequence in columnar form. Heads and
// Args always have equal length, and index i across them is op i. Head
// i holds op i's kind in its low KindBits bits and its gap, or
// GapEscape, above them. Wides holds one entry per GapEscape in Heads
// and per ArgEscape in Args, in op order, an op's gap before its arg.
type Stream struct {
	Heads []uint8
	Args  []uint16
	Wides []uint32
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
func (s Stream) Len() int { return len(s.Heads) }

// Append scatters one row onto the columns. The kind must be valid: it
// shares the head byte with the gap.
func (s *Stream) Append(op Op) {
	h := uint8(op.Kind)
	if op.Gap < GapEscape {
		h |= uint8(op.Gap) << KindBits
	} else {
		h |= GapEscape << KindBits
		s.Wides = append(s.Wides, op.Gap)
	}
	s.Heads = append(s.Heads, h)
	if op.Arg < ArgEscape {
		s.Args = append(s.Args, uint16(op.Arg))
	} else {
		s.Args = append(s.Args, ArgEscape)
		s.Wides = append(s.Wides, op.Arg)
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
// escape count that does not match Wides. Cursor relies on both.
func (s Stream) check() error {
	if len(s.Args) != len(s.Heads) {
		return fmt.Errorf("ragged columns: %d heads, %d args", len(s.Heads), len(s.Args))
	}
	n := 0
	for i, h := range s.Heads {
		if h>>KindBits == GapEscape {
			n++
		}
		if s.Args[i] == ArgEscape {
			n++
		}
	}
	if n != len(s.Wides) {
		return fmt.Errorf("%d escaped gaps and args but %d wides", n, len(s.Wides))
	}
	return nil
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
	heads []uint8
	args  []uint16
	wides []uint32
	i     int // next op
	w     int // next Wides entry
}

// Cursor returns an iterator positioned before the first op.
func (s Stream) Cursor() Cursor {
	return Cursor{heads: s.Heads, args: s.Args, wides: s.Wides}
}

// Next returns the next op, or ok=false past the end. Every step is
// shaped by the inlining budget (cost 79 of 80): past the end the bare
// return yields the still-zero results, the head and arg are loaded once
// and their raw values tested for the escapes, and the escapes are
// patched in place rather than through a helper call, since a call that
// is not itself inlined costs more than the whole budget and each
// branch is two instructions on a path few ops take.
func (c *Cursor) Next() (op Op, ok bool) {
	if c.i >= len(c.heads) {
		return
	}
	h, a := c.heads[c.i], c.args[c.i]
	c.i++
	op = Op{Kind: Kind(h & (1<<KindBits - 1)), Gap: uint32(h >> KindBits), Arg: uint32(a)}
	if h >= GapEscape<<KindBits {
		op.Gap = c.wides[c.w]
		c.w++
	}
	if a == ArgEscape {
		op.Arg = c.wides[c.w]
		c.w++
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
// content.
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
// processor must hold at most one lock at a time per id. The streams
// are checked concurrently through EachCPU; the error returned is the
// one a check of CPU 0, then CPU 1, and so on would meet first.
func (t *Trace) Validate() error {
	barriers := make([][]uint32, len(t.CPUs))
	errs := make([]error, len(t.CPUs))
	EachCPU(len(t.CPUs), func(cpu int) {
		barriers[cpu], errs[cpu] = t.validateStream(cpu)
	})
	for cpu, err := range errs {
		if err != nil {
			return err
		}
		if cpu == 0 {
			continue
		}
		ref, got := barriers[0], barriers[cpu]
		if len(got) != len(ref) {
			return fmt.Errorf("trace %s: cpu %d passes %d barriers, cpu 0 passes %d",
				t.Name, cpu, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				return fmt.Errorf("trace %s: cpu %d barrier %d is id %d, cpu 0 has id %d",
					t.Name, cpu, i, got[i], ref[i])
			}
		}
	}
	return nil
}

// validateStream checks one processor's stream on its own — columns and
// lock discipline — and returns the barrier ids it passes, in order.
func (t *Trace) validateStream(cpu int) ([]uint32, error) {
	if err := t.CPUs[cpu].check(); err != nil {
		return nil, fmt.Errorf("trace %s: cpu %d: %w", t.Name, cpu, err)
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
				return nil, fmt.Errorf("trace %s: cpu %d op %d: recursive lock %d", t.Name, cpu, i, op.Arg)
			}
			held[op.Arg] = true
		case Unlock:
			if !held[op.Arg] {
				return nil, fmt.Errorf("trace %s: cpu %d op %d: unlock of unheld lock %d", t.Name, cpu, i, op.Arg)
			}
			delete(held, op.Arg)
		}
	}
	if len(held) != 0 {
		return nil, fmt.Errorf("trace %s: cpu %d ends holding %d locks", t.Name, cpu, len(held))
	}
	return barriers, nil
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
//
// A Recorder's size is a whole number of 64-byte cache lines, so the
// recorders a World's generators write concurrently share none;
// TestRecorderFillsWholeCacheLines holds it there and records why.
type Recorder struct {
	// The stream grows in chunks, not by reslicing one set of columns:
	// append's 1.25x growth on large slices leaves about five times the
	// finished stream behind as garbage, which set the heap's high-water
	// mark wherever a collection happened to catch it. cur holds the
	// chunks being filled and done the filled ones in the order they
	// filled. The head and arg chunks fill together and Wides on its
	// own, since how many ops escape varies from none to most, so each
	// entry of done retires either Heads and Args or Wides; Finish
	// gathers each column over the entries into an exact-length one.
	done []Stream
	cur  Stream

	// pending is compute time accumulated before the next emitted op.
	pending uint64
	// runGap is time accumulated during the active run (merged L1 hits
	// and interleaved compute); it becomes pending when the run flushes,
	// since it elapses after the run's fetch.
	runGap uint64

	// Apart, each flag would pad to a word of its own.
	runBlock memory.Block
	runValid bool
	runWrite bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Chunk capacities in entries: a recorder's first chunk of a column
// holds firstChunkOps, and each later one twice its predecessor up to
// maxChunkOps (12 KiB of heads and args, 16 KiB of wides), so short
// streams stay small and long ones add one fixed-size chunk at a time.
const (
	firstChunkOps = 256
	maxChunkOps   = 4096
)

// push appends one row to the current chunks, starting a new one for
// each that is full: Heads and Args take one entry, and Wides up to
// two when the row escapes.
func (r *Recorder) push(op Op) {
	if len(r.cur.Heads) == cap(r.cur.Heads) {
		r.nextOpChunk()
	}
	if cap(r.cur.Wides)-len(r.cur.Wides) < 2 && (op.Gap >= GapEscape || op.Arg >= ArgEscape) {
		r.nextWideChunk()
	}
	r.cur.Append(op)
}

// nextOpChunk retires the full head and arg chunks and starts empty
// ones.
func (r *Recorder) nextOpChunk() {
	n := firstChunkOps
	if c := cap(r.cur.Heads); c > 0 {
		r.done = append(r.done, Stream{Heads: r.cur.Heads, Args: r.cur.Args})
		n = min(2*c, maxChunkOps)
	}
	r.cur.Heads, r.cur.Args = make([]uint8, 0, n), make([]uint16, 0, n)
}

// nextWideChunk retires the wide chunk, which has no room for a row's
// two escapes, and starts an empty one.
func (r *Recorder) nextWideChunk() {
	n := firstChunkOps
	if c := cap(r.cur.Wides); c > 0 {
		r.done = append(r.done, Stream{Wides: r.cur.Wides})
		n = min(2*c, maxChunkOps)
	}
	r.cur.Wides = make([]uint32, 0, n)
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
		Heads: gather(chunks, func(c *Stream) []uint8 { return c.Heads }),
		Args:  gather(chunks, func(c *Stream) []uint16 { return c.Args }),
		Wides: gather(chunks, func(c *Stream) []uint32 { return c.Wides }),
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

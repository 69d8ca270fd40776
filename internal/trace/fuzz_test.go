package trace_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/memory"
	"repro/internal/trace"
)

// The fuzz inputs drive a Recorder (or build a raw trace) through a
// 3-byte instruction encoding: one opcode byte and a 16-bit argument.
// The opcode byte's value modulo fzOps selects the instruction; the
// quotient is a second, smaller operand where one is needed. Real
// application traces re-encode into the same format to seed the corpus
// with realistic access/sync interleavings.
const (
	fzRead = iota
	fzWrite
	fzCompute
	fzBarrier
	fzLock
	fzUnlock
	fzPhase
	fzRange
	fzOps // opcode modulus
)

// FuzzTraceValidate's decoder adds three instructions that damage the
// columns of the stream built so far.
const (
	fzDropWide  = fzOps + iota // remove the Wides entry at arg modulo its length
	fzAddWide                  // insert arg into Wides at arg modulo its length+1
	fzTruncArgs                // drop the last Args entry
	fzValidateOps
)

// encodeStep appends one instruction.
func encodeStep(dst []byte, op byte, arg uint16) []byte {
	return append(dst, op, byte(arg>>8), byte(arg))
}

// seedFromApp re-encodes the first CPU stream of a real generated trace
// (blocks truncated to 16 bits, gaps to compute steps) so the fuzz
// corpus starts from generator-shaped interleavings.
func seedFromApp(tb testing.TB, name string, maxSteps int) []byte {
	tb.Helper()
	info, err := apps.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := info.Generate(apps.Params{CPUs: 8, Scale: 64})
	if err != nil {
		tb.Fatal(err)
	}
	var out []byte
	steps := 0
	for _, op := range tr.CPUs[0].Ops() {
		if steps >= maxSteps {
			break
		}
		if op.Gap > 0 {
			out = encodeStep(out, fzCompute, uint16(op.Gap))
			steps++
		}
		switch op.Kind {
		case trace.Read:
			out = encodeStep(out, fzRead, uint16(op.Arg))
		case trace.Write:
			out = encodeStep(out, fzWrite, uint16(op.Arg))
		case trace.Barrier:
			out = encodeStep(out, fzBarrier, uint16(op.Arg))
		case trace.Lock:
			out = encodeStep(out, fzLock, uint16(op.Arg))
		case trace.Unlock:
			out = encodeStep(out, fzUnlock, uint16(op.Arg))
		case trace.Phase:
			out = encodeStep(out, fzPhase, 0)
		}
		steps++
	}
	return out
}

// recorderModel predicts a Recorder's rows from the calls made on it,
// written from the Recorder's documented rules rather than its code: a
// run of same-block accesses is one op, Write if any access wrote; a
// merged access and compute inside a run add to the run's gap, which
// the op after the run carries; compute outside a run and the run gap
// of the last closed run add to the pending gap, which the next op
// carries, split into leading Pads of at most 2^32-1 cycles; Finish
// closes the run and carries a left-over pending gap on a Pad.
type recorderModel struct {
	ops     []trace.Op
	run     trace.Op // the open run's kind and block
	runOpen bool
	pending uint64
	runGap  uint64
}

func (m *recorderModel) emit(k trace.Kind, arg uint32) {
	for ; m.pending > math.MaxUint32; m.pending -= math.MaxUint32 {
		m.ops = append(m.ops, trace.Op{Kind: trace.Pad, Gap: math.MaxUint32})
	}
	m.ops = append(m.ops, trace.Op{Kind: k, Gap: uint32(m.pending), Arg: arg})
	m.pending = 0
}

func (m *recorderModel) closeRun() {
	if !m.runOpen {
		return
	}
	m.emit(m.run.Kind, m.run.Arg)
	m.pending, m.runGap, m.runOpen = m.runGap, 0, false
}

func (m *recorderModel) access(b memory.Block, write bool) {
	if m.runOpen && m.run.Arg == uint32(b) {
		if write {
			m.run.Kind = trace.Write
		}
		m.runGap++ // merged hit costs one pipeline cycle
		return
	}
	m.closeRun()
	m.run, m.runOpen = trace.Op{Kind: trace.Read, Arg: uint32(b)}, true
	if write {
		m.run.Kind = trace.Write
	}
}

func (m *recorderModel) compute(cycles uint64) {
	if m.runOpen {
		m.runGap += cycles
	} else {
		m.pending += cycles
	}
}

func (m *recorderModel) sync(k trace.Kind, arg uint64) {
	m.closeRun()
	m.emit(k, uint32(arg))
}

func (m *recorderModel) finish() []trace.Op {
	m.closeRun()
	if m.pending > 0 {
		m.emit(trace.Pad, 0)
	}
	return m.ops
}

// rangeOperands decodes fzRange: the range starts halfway into block
// arg and covers n/2+1 blocks' worth of bytes (so 2 to 17 blocks), and
// writes when n is odd.
func rangeOperands(arg uint64, n byte) (start memory.Addr, bytes int, write bool) {
	return memory.Addr(arg*config.BlockBytes + config.BlockBytes/2), (int(n)/2 + 1) * config.BlockBytes, n%2 == 1
}

// recorderSeeds are FuzzRecorderCoalescing's hand-written seeds, at the
// edges of the Recorder's direct-append path: a pending gap of 30, 31
// and 32 (the 5-bit escape), blocks 65534 and 65535 (the 16-bit
// escape), the 256th and 257th op (the first chunk filling) and a full
// 4096-entry chunk, runs closed by each sync op and by Finish, and
// AccessRange after an open run.
func recorderSeeds() [][]byte {
	var seeds [][]byte
	for _, gap := range []uint16{30, 31, 32} {
		var s []byte
		s = encodeStep(s, fzCompute, gap) // pending before the first run
		s = encodeStep(s, fzRead, 1)
		s = encodeStep(s, fzCompute, gap) // run gap carried onto the next op
		s = encodeStep(s, fzRead, 2)
		s = encodeStep(s, fzWrite, 3)
		seeds = append(seeds, s)
	}
	var s []byte
	for _, b := range []uint16{65534, 65535, 65535, 65534, 0, 65535} {
		s = encodeStep(s, fzCompute, 7)
		s = encodeStep(s, fzWrite, b)
	}
	seeds = append(seeds, s)
	for _, ops := range []int{256, 257, 258, 256 + 512 + 1024 + 2048 + 4096 + 2} {
		var s []byte
		for i := range ops {
			s = encodeStep(s, fzRead, uint16(i%2))
			if i%5 == 0 {
				s = encodeStep(s, fzCompute, uint16(i%40))
			}
		}
		seeds = append(seeds, s)
	}
	s = nil
	for _, closer := range []byte{fzBarrier, fzLock, fzUnlock, fzPhase} {
		s = encodeStep(s, fzRead, 5)
		s = encodeStep(s, fzCompute, 9)
		s = encodeStep(s, fzWrite, 5)
		s = encodeStep(s, closer, 3)
		s = encodeStep(s, fzCompute, 33)
	}
	s = encodeStep(s, fzRead, 6)
	s = encodeStep(s, fzCompute, 4) // the run Finish closes leaves a Pad
	seeds = append(seeds, s)
	s = nil
	s = encodeStep(s, fzRead, 10)
	s = encodeStep(s, fzCompute, 5)
	s = encodeStep(s, fzRange+fzOps*3, 10) // merges into the open run
	s = encodeStep(s, fzRead, 40)
	s = encodeStep(s, fzCompute, 50)
	s = encodeStep(s, fzRange+fzOps*30, 41)    // carries an escaped pending gap
	s = encodeStep(s, fzRange+fzOps*31, 65530) // crosses block 65535
	seeds = append(seeds, s)
	return seeds
}

// FuzzRecorderCoalescing drives a Recorder with arbitrary interleavings
// of accesses, block ranges, compute and synchronization and compares
// what Finish returns, row by row and column by column, with the rows
// recorderModel predicts: each op's kind, arg and exact gap, and the
// columns Stream.Append lays out for those rows.
func FuzzRecorderCoalescing(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeStep(encodeStep(encodeStep(nil, fzRead, 1), fzWrite, 1), fzRead, 2))
	f.Add(seedFromApp(f, "radix", 512))
	f.Add(seedFromApp(f, "lu", 512))
	f.Add(seedFromApp(f, "migratory", 256))
	for _, s := range recorderSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := trace.NewRecorder()
		var m recorderModel
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % fzOps
			arg := uint64(data[i+1])<<8 | uint64(data[i+2])
			switch op {
			case fzRead, fzWrite:
				addr := memory.Addr(arg * config.BlockBytes)
				r.Access(addr, op == fzWrite)
				m.access(addr.Block(), op == fzWrite)
			case fzRange:
				start, bytes, write := rangeOperands(arg, data[i]/fzOps)
				r.AccessRange(start, bytes, write)
				for b := start.Block(); b <= (start + memory.Addr(bytes-1)).Block(); b++ {
					m.access(b, write)
				}
			case fzCompute:
				r.Compute(int(arg))
				m.compute(arg)
			case fzBarrier:
				r.Barrier(int(arg))
				m.sync(trace.Barrier, arg)
			case fzLock:
				r.Lock(int(arg))
				m.sync(trace.Lock, arg)
			case fzUnlock:
				r.Unlock(int(arg))
				m.sync(trace.Unlock, arg)
			case fzPhase:
				r.Phase()
				m.sync(trace.Phase, 0)
			}
		}
		got, want := r.Finish(), m.finish()
		rows := got.Ops()
		for i := range min(len(rows), len(want)) {
			if rows[i] != want[i] {
				t.Fatalf("op %d: got %+v, want %+v", i, rows[i], want[i])
			}
		}
		if len(rows) != len(want) {
			t.Fatalf("recorded %d ops, want %d", len(rows), len(want))
		}
		ws := trace.StreamOf(want...)
		if !slices.Equal(got.Heads, ws.Heads) || !slices.Equal(got.Args, ws.Args) || !slices.Equal(got.Wides, ws.Wides) {
			t.Fatalf("columns differ from StreamOf of the same rows:\n got %v\nwant %v", got, ws)
		}
	})
}

// refCheck is Stream's column check, restated for refValidate.
func refCheck(s trace.Stream) error {
	if len(s.Args) != len(s.Heads) {
		return fmt.Errorf("ragged columns: %d heads, %d args", len(s.Heads), len(s.Args))
	}
	n := 0
	for i, h := range s.Heads {
		if h>>trace.KindBits == trace.GapEscape {
			n++
		}
		if s.Args[i] == trace.ArgEscape {
			n++
		}
	}
	if n != len(s.Wides) {
		return fmt.Errorf("%d escaped gaps and args but %d wides", n, len(s.Wides))
	}
	return nil
}

// refValidateStream is the two-pass stream check Validate used before
// its one-pass walk: check the columns, then walk the ops through a
// Cursor.
func refValidateStream(tr *trace.Trace, cpu int) ([]uint32, error) {
	if err := refCheck(tr.CPUs[cpu]); err != nil {
		return nil, fmt.Errorf("trace %s: cpu %d: %w", tr.Name, cpu, err)
	}
	var barriers []uint32
	held := map[uint32]bool{}
	c := tr.CPUs[cpu].Cursor()
	for i := 0; ; i++ {
		op, ok := c.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case trace.Barrier:
			barriers = append(barriers, op.Arg)
		case trace.Lock:
			if held[op.Arg] {
				return nil, fmt.Errorf("trace %s: cpu %d op %d: recursive lock %d", tr.Name, cpu, i, op.Arg)
			}
			held[op.Arg] = true
		case trace.Unlock:
			if !held[op.Arg] {
				return nil, fmt.Errorf("trace %s: cpu %d op %d: unlock of unheld lock %d", tr.Name, cpu, i, op.Arg)
			}
			delete(held, op.Arg)
		}
	}
	if len(held) != 0 {
		return nil, fmt.Errorf("trace %s: cpu %d ends holding %d locks", tr.Name, cpu, len(held))
	}
	return barriers, nil
}

// refValidate is the sequential two-pass reference for Validate: the
// streams in CPU order, each compared with CPU 0's barriers once it
// passes its own check.
func refValidate(tr *trace.Trace) error {
	var ref []uint32
	for cpu := range tr.CPUs {
		got, err := refValidateStream(tr, cpu)
		if err != nil {
			return err
		}
		if cpu == 0 {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			return fmt.Errorf("trace %s: cpu %d passes %d barriers, cpu 0 passes %d",
				tr.Name, cpu, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				return fmt.Errorf("trace %s: cpu %d barrier %d is id %d, cpu 0 has id %d",
					tr.Name, cpu, i, got[i], ref[i])
			}
		}
	}
	return nil
}

// decodeStream builds a raw stream for FuzzTraceValidate. Every op
// carries a gap from the opcode byte's quotient, escaped above 20;
// fzRange is a Read whose arg escapes above 16 bits; the damage
// instructions make the columns disagree.
func decodeStream(data []byte) trace.Stream {
	var s trace.Stream
	for i := 0; i+2 < len(data); i += 3 {
		op := data[i] % fzValidateOps
		gap := uint32(data[i] / fzValidateOps)
		if gap > 20 {
			gap <<= 8
		}
		arg := uint32(data[i+1])<<8 | uint32(data[i+2])
		switch op {
		case fzRead:
			s.Append(trace.Op{Kind: trace.Read, Gap: gap, Arg: arg})
		case fzWrite:
			s.Append(trace.Op{Kind: trace.Write, Gap: gap, Arg: arg})
		case fzRange:
			s.Append(trace.Op{Kind: trace.Read, Gap: gap, Arg: arg | 1<<16})
		case fzCompute:
			s.Append(trace.Op{Kind: trace.Pad, Gap: arg})
		case fzBarrier:
			s.Append(trace.Op{Kind: trace.Barrier, Gap: gap, Arg: arg})
		case fzLock:
			s.Append(trace.Op{Kind: trace.Lock, Gap: gap, Arg: arg})
		case fzUnlock:
			s.Append(trace.Op{Kind: trace.Unlock, Gap: gap, Arg: arg})
		case fzPhase:
			s.Append(trace.Op{Kind: trace.Phase, Gap: gap})
		case fzDropWide:
			if n := len(s.Wides); n > 0 {
				s.Wides = slices.Delete(s.Wides, int(arg)%n, int(arg)%n+1)
			}
		case fzAddWide:
			s.Wides = slices.Insert(s.Wides, int(arg)%(len(s.Wides)+1), arg)
		case fzTruncArgs:
			if n := len(s.Args); n > 0 {
				s.Args = s.Args[:n-1]
			}
		}
	}
	return s
}

// FuzzTraceValidate builds two-processor traces from arbitrary encoded
// op streams, some with damaged columns, and requires Validate to give
// exactly refValidate's verdict: the same accept or reject, with the
// same error text. Structurally well-formed prefixes from real
// generators seed the corpus, so the accept/reject boundary (mismatched
// barrier sequences, unbalanced locks, column faults and their
// priority over lock faults) gets explored by mutation.
func FuzzTraceValidate(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(seedFromApp(f, "radix", 256), seedFromApp(f, "radix", 256))
	f.Add(seedFromApp(f, "lu", 256), seedFromApp(f, "migratory", 256))
	// escapedIDs encodes ops whose arg, 65535, escapes into Wides.
	escapedIDs := func(ops ...byte) []byte {
		var s []byte
		for _, op := range ops {
			s = encodeStep(s, op, 65535)
		}
		return s
	}
	f.Add(escapedIDs(fzLock, fzUnlock, fzBarrier), escapedIDs(fzLock, fzUnlock, fzBarrier))
	f.Add(escapedIDs(fzLock, fzLock, fzDropWide), escapedIDs(fzBarrier))
	f.Add(escapedIDs(fzUnlock, fzAddWide), escapedIDs(fzRange, fzTruncArgs))
	f.Add(escapedIDs(fzLock, fzAddWide, fzUnlock), escapedIDs(fzLock, fzDropWide, fzUnlock))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		tr := &trace.Trace{Name: "fuzz", CPUs: []trace.Stream{decodeStream(a), decodeStream(b)}}
		got, want := tr.Validate(), refValidate(tr)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Validate: %v\nreference: %v", got, want)
		}
	})
}

// TestValidateAcceptsEveryGenerator pins the contract the fuzz seeds
// rely on: every registered application generator emits a trace that
// Validate accepts, at several scales and CPU counts.
func TestValidateAcceptsEveryGenerator(t *testing.T) {
	for _, info := range apps.All() {
		for _, cpus := range []int{8, 32} {
			tr, err := info.Generate(apps.Params{CPUs: cpus, Scale: 64})
			if err != nil {
				t.Fatalf("%s cpus=%d: %v", info.Name, cpus, err)
			}
			if err := tr.Validate(); err != nil {
				t.Errorf("%s cpus=%d: generator output rejected: %v", info.Name, cpus, err)
			}
		}
	}
}

package trace_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/memory"
	"repro/internal/trace"
)

// The fuzz inputs drive a Recorder (or build a raw trace) through a
// 3-byte instruction encoding: one opcode byte and a 16-bit argument.
// Real application traces re-encode into the same format to seed the
// corpus with realistic access/sync interleavings.
const (
	fzRead = iota
	fzWrite
	fzCompute
	fzBarrier
	fzLock
	fzUnlock
	fzPhase
	fzOps // opcode modulus
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

// FuzzRecorderCoalescing drives a Recorder with arbitrary interleavings
// of accesses, compute and synchronization and checks the coalescing
// invariants against an independent model:
//
//   - the emitted Read/Write ops preserve the order of distinct-block
//     runs (consecutive same-block accesses merge into one op),
//   - a run containing any write emits Write,
//   - synchronization ops pass through in order and break runs,
//   - compute time is conserved: the sum of all emitted gaps equals the
//     cycles fed via Compute plus one cycle per merged (L1-hit) access.
func FuzzRecorderCoalescing(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeStep(encodeStep(encodeStep(nil, fzRead, 1), fzWrite, 1), fzRead, 2))
	f.Add(seedFromApp(f, "radix", 512))
	f.Add(seedFromApp(f, "lu", 512))
	f.Add(seedFromApp(f, "migratory", 256))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := trace.NewRecorder()
		var want []trace.Op // expected kinds and args, gaps unused
		var wantGaps uint64
		runOpen := false
		appendAccess := func(b memory.Block, write bool) {
			if runOpen && want[len(want)-1].Arg == uint32(b) {
				if write {
					want[len(want)-1].Kind = trace.Write
				}
				wantGaps++ // merged hit costs one pipeline cycle
				return
			}
			k := trace.Read
			if write {
				k = trace.Write
			}
			want = append(want, trace.Op{Kind: k, Arg: uint32(b)})
			runOpen = true
		}
		appendSync := func(k trace.Kind, arg uint64) {
			want = append(want, trace.Op{Kind: k, Arg: uint32(arg)})
			runOpen = false
		}

		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % fzOps
			arg := uint64(data[i+1])<<8 | uint64(data[i+2])
			switch op {
			case fzRead, fzWrite:
				addr := memory.Addr(arg * config.BlockBytes)
				appendAccess(addr.Block(), op == fzWrite)
				r.Access(addr, op == fzWrite)
			case fzCompute:
				r.Compute(int(arg))
				wantGaps += arg
			case fzBarrier:
				r.Barrier(int(arg))
				appendSync(trace.Barrier, arg)
			case fzLock:
				r.Lock(int(arg))
				appendSync(trace.Lock, arg)
			case fzUnlock:
				r.Unlock(int(arg))
				appendSync(trace.Unlock, arg)
			case fzPhase:
				r.Phase()
				appendSync(trace.Phase, 0)
			}
		}
		ops := r.Finish().Ops()

		var gotGaps uint64
		j := 0
		for _, op := range ops {
			gotGaps += uint64(op.Gap)
			if op.Kind == trace.Pad {
				continue // pure gap carrier
			}
			if j >= len(want) {
				t.Fatalf("extra op %v (arg %d) beyond %d expected", op.Kind, op.Arg, len(want))
			}
			if op.Kind != want[j].Kind || op.Arg != want[j].Arg {
				t.Fatalf("op %d: got %v(%d), want %v(%d)", j, op.Kind, op.Arg, want[j].Kind, want[j].Arg)
			}
			j++
		}
		if j != len(want) {
			t.Fatalf("emitted %d ops, want %d: coalescing dropped a run", j, len(want))
		}
		if gotGaps != wantGaps {
			t.Fatalf("gap cycles not conserved: emitted %d, fed %d", gotGaps, wantGaps)
		}
	})
}

// FuzzTraceValidate builds two-processor traces from arbitrary encoded
// op streams and checks that Validate never panics and is deterministic.
// Structurally well-formed prefixes from real generators seed the
// corpus, so the interesting accept/reject boundary (mismatched barrier
// sequences, unbalanced locks) gets explored by mutation.
func FuzzTraceValidate(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(seedFromApp(f, "radix", 256), seedFromApp(f, "radix", 256))
	f.Add(seedFromApp(f, "lu", 256), seedFromApp(f, "migratory", 256))

	decode := func(data []byte) trace.Stream {
		var ops trace.Stream
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % fzOps
			arg := uint64(data[i+1])<<8 | uint64(data[i+2])
			switch op {
			case fzRead:
				ops.Append(trace.Op{Kind: trace.Read, Arg: uint32(arg)})
			case fzWrite:
				ops.Append(trace.Op{Kind: trace.Write, Arg: uint32(arg)})
			case fzCompute:
				ops.Append(trace.Op{Kind: trace.Pad, Gap: uint32(arg)})
			case fzBarrier:
				ops.Append(trace.Op{Kind: trace.Barrier, Arg: uint32(arg)})
			case fzLock:
				ops.Append(trace.Op{Kind: trace.Lock, Arg: uint32(arg)})
			case fzUnlock:
				ops.Append(trace.Op{Kind: trace.Unlock, Arg: uint32(arg)})
			case fzPhase:
				ops.Append(trace.Op{Kind: trace.Phase})
			}
		}
		return ops
	}

	f.Fuzz(func(t *testing.T, a, b []byte) {
		tr := &trace.Trace{Name: "fuzz", CPUs: []trace.Stream{decode(a), decode(b)}}
		err1 := tr.Validate()
		err2 := tr.Validate()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Validate not deterministic: %v vs %v", err1, err2)
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

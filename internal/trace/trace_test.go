package trace

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/memory"
)

func TestRecorderCoalescesSameBlock(t *testing.T) {
	r := NewRecorder()
	// Eight word accesses within one block coalesce to one op.
	for i := 0; i < 8; i++ {
		r.Access(memory.Addr(i*8), false)
	}
	r.Access(memory.Addr(config.BlockBytes), true) // next block
	ops := r.Finish().Ops()
	if len(ops) != 2 {
		t.Fatalf("got %d ops, want 2", len(ops))
	}
	if ops[0].Kind != Read || ops[0].Arg != 0 {
		t.Errorf("op0 = %+v, want read of block 0", ops[0])
	}
	// The seven merged hits become gap cycles.
	if ops[0].Gap != 0 || ops[1].Gap != 7 {
		t.Errorf("gaps = %d,%d; want 0,7", ops[0].Gap, ops[1].Gap)
	}
	if ops[1].Kind != Write || ops[1].Arg != 1 {
		t.Errorf("op1 = %+v, want write of block 1", ops[1])
	}
}

func TestRecorderReadThenWriteBecomesWrite(t *testing.T) {
	r := NewRecorder()
	r.Access(0, false)
	r.Access(8, true) // same block
	ops := r.Finish().Ops()
	// One exclusive access; the merged hit's cycle trails as a pad.
	if len(ops) != 2 || ops[0].Kind != Write || ops[1].Kind != Pad || ops[1].Gap != 1 {
		t.Fatalf("ops = %+v, want write then pad(1)", ops)
	}
}

func TestRecorderComputeAttachesToNextOp(t *testing.T) {
	r := NewRecorder()
	r.Access(0, false)
	r.Compute(100)
	r.Access(memory.Addr(config.BlockBytes), false)
	ops := r.Finish().Ops()
	if len(ops) != 2 {
		t.Fatalf("got %d ops, want 2", len(ops))
	}
	if ops[1].Gap != 100 {
		t.Errorf("gap = %d, want 100", ops[1].Gap)
	}
}

func TestRecorderTrailingComputeBecomesPad(t *testing.T) {
	r := NewRecorder()
	r.Access(0, true)
	r.Compute(55)
	ops := r.Finish().Ops()
	if len(ops) != 2 || ops[1].Kind != Pad || ops[1].Gap != 55 {
		t.Fatalf("ops = %+v, want write then pad(55)", ops)
	}
}

func TestRecorderSyncFlushesRun(t *testing.T) {
	r := NewRecorder()
	r.Access(0, false)
	r.Barrier(3)
	r.Access(0, false) // same block again: new run after the barrier
	ops := r.Finish().Ops()
	if len(ops) != 3 {
		t.Fatalf("got %d ops, want 3", len(ops))
	}
	if ops[1].Kind != Barrier || ops[1].Arg != 3 {
		t.Errorf("op1 = %+v, want barrier 3", ops[1])
	}
}

func TestRecorderLockUnlock(t *testing.T) {
	r := NewRecorder()
	r.Lock(2)
	r.Access(0, true)
	r.Unlock(2)
	ops := r.Finish().Ops()
	if len(ops) != 3 || ops[0].Kind != Lock || ops[2].Kind != Unlock {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestValidateCatchesBarrierMismatch(t *testing.T) {
	tr := &Trace{
		Name: "bad",
		CPUs: []Stream{
			StreamOf(Op{Kind: Barrier, Arg: 0}),
			StreamOf(Op{Kind: Barrier, Arg: 1}),
		},
	}
	if err := tr.Validate(); err == nil {
		t.Error("mismatched barrier ids validated")
	}
	tr2 := &Trace{
		Name: "bad2",
		CPUs: []Stream{
			StreamOf(Op{Kind: Barrier, Arg: 0}),
			{},
		},
	}
	if err := tr2.Validate(); err == nil {
		t.Error("unbalanced barrier counts validated")
	}
}

func TestValidateCatchesLockErrors(t *testing.T) {
	recursive := &Trace{
		Name: "rec",
		CPUs: []Stream{StreamOf(Op{Kind: Lock, Arg: 1}, Op{Kind: Lock, Arg: 1})},
	}
	if err := recursive.Validate(); err == nil {
		t.Error("recursive lock validated")
	}
	unheld := &Trace{
		Name: "unheld",
		CPUs: []Stream{StreamOf(Op{Kind: Unlock, Arg: 1})},
	}
	if err := unheld.Validate(); err == nil {
		t.Error("unlock of unheld lock validated")
	}
	leaked := &Trace{
		Name: "leak",
		CPUs: []Stream{StreamOf(Op{Kind: Lock, Arg: 1})},
	}
	if err := leaked.Validate(); err == nil {
		t.Error("trace ending with a held lock validated")
	}
}

// faultyTrace has 12 CPUs passing one barrier. faults maps a CPU to
// the ops it runs before that barrier, and wides to Wides entries
// appended past its escapes.
func faultyTrace(faults map[int][]Op, wides map[int][]uint32) *Trace {
	tr := &Trace{Name: "faulty", CPUs: make([]Stream, 12), Barriers: 1, Locks: 8}
	for cpu := range tr.CPUs {
		ops := append(faults[cpu], Op{Kind: Barrier, Arg: 0})
		tr.CPUs[cpu] = StreamOf(ops...)
		tr.CPUs[cpu].Wides = append(tr.CPUs[cpu].Wides, wides[cpu]...)
	}
	return tr
}

// TestValidateReportsLowestFailingCPU: the streams are checked
// concurrently, but the error is the one a check in CPU order meets
// first, worded exactly as the sequential check words it.
func TestValidateReportsLowestFailingCPU(t *testing.T) {
	cases := []struct {
		name   string
		faults map[int][]Op
		wides  map[int][]uint32
		want   string
	}{
		{
			name: "stream faults on cpus 3 and 9",
			faults: map[int][]Op{
				3: {{Kind: Unlock, Arg: 5}},
				9: {{Kind: Lock, Arg: 2}, {Kind: Lock, Arg: 2}},
			},
			want: "trace faulty: cpu 3 op 0: unlock of unheld lock 5",
		},
		{
			name: "fault on cpu 9 only",
			faults: map[int][]Op{
				9: {{Kind: Lock, Arg: 2}, {Kind: Lock, Arg: 2}},
			},
			want: "trace faulty: cpu 9 op 1: recursive lock 2",
		},
		{
			name: "barrier mismatch on cpu 2 before a stream fault on cpu 7",
			faults: map[int][]Op{
				2: {{Kind: Barrier, Arg: 4}},
				7: {{Kind: Lock, Arg: 1}},
			},
			want: "trace faulty: cpu 2 passes 2 barriers, cpu 0 passes 1",
		},
		{
			name: "held lock on cpu 5 before a barrier id mismatch on cpu 6",
			faults: map[int][]Op{
				5: {{Kind: Lock, Arg: 3}},
				6: {{Kind: Barrier, Arg: 1}, {Kind: Unlock, Arg: 0}},
			},
			want: "trace faulty: cpu 5 ends holding 1 locks",
		},
		{
			name: "wrong wides count and a recursive lock on cpu 4",
			faults: map[int][]Op{
				4: {{Kind: Lock, Arg: ArgEscape}, {Kind: Lock, Arg: ArgEscape}},
			},
			wides: map[int][]uint32{4: {7}},
			want:  "trace faulty: cpu 4: 2 escaped gaps and args but 3 wides",
		},
	}
	for _, tc := range cases {
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			err := faultyTrace(tc.faults, tc.wides).Validate()
			runtime.GOMAXPROCS(prev)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, GOMAXPROCS %d: got %v, want %q", tc.name, procs, err, tc.want)
			}
		}
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	tr := &Trace{
		Name: "ok",
		CPUs: []Stream{
			StreamOf(Op{Kind: Lock, Arg: 0}, Op{Kind: Write, Arg: 5}, Op{Kind: Unlock, Arg: 0}, Op{Kind: Barrier, Arg: 0}),
			StreamOf(Op{Kind: Read, Arg: 9}, Op{Kind: Barrier, Arg: 0}),
		},
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("well-formed trace rejected: %v", err)
	}
	if tr.Ops() != 6 {
		t.Errorf("ops = %d, want 6", tr.Ops())
	}
}

func TestRecorderOpCountNeverExceedsAccesses(t *testing.T) {
	// Property: coalescing only shrinks; op count <= access count, and
	// total gap equals compute plus merged hits.
	f := func(addrs []uint16, computes []uint8) bool {
		r := NewRecorder()
		var totalCompute uint64
		for i, a := range addrs {
			r.Access(memory.Addr(a), a%3 == 0)
			if i < len(computes) {
				r.Compute(int(computes[i]))
				totalCompute += uint64(computes[i])
			}
		}
		ops := r.Finish().Ops()
		if len(ops) > len(addrs)+1 { // +1 for a possible trailing pad
			return false
		}
		var gaps, memOps uint64
		for _, op := range ops {
			gaps += uint64(op.Gap)
			if op.Kind == Read || op.Kind == Write {
				memOps++
			}
		}
		merged := uint64(len(addrs)) - memOps
		return gaps == totalCompute+merged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Read; k <= Pad; k++ {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("kind %d has bad string %q", k, s)
		}
	}
}

// twinRecorders drives two recorders in step: got records each range
// with one AccessRange call, and want expands it into per-block Access
// calls in address order, the way callers recorded ranges before
// AccessRange existed.
type twinRecorders struct{ got, want *Recorder }

func newTwinRecorders() twinRecorders {
	return twinRecorders{got: NewRecorder(), want: NewRecorder()}
}

// both applies f to each recorder.
func (tw twinRecorders) both(f func(r *Recorder)) { f(tw.got); f(tw.want) }

func (tw twinRecorders) accessRange(start memory.Addr, bytes int, write bool) {
	tw.got.AccessRange(start, bytes, write)
	if bytes <= 0 {
		return
	}
	end := start + memory.Addr(bytes-1)
	for a := start; ; a += config.BlockBytes {
		tw.want.Access(a, write)
		if a.Block() == end.Block() {
			return
		}
	}
}

// check finishes both recorders and requires equal streams, naming the
// first op that differs.
func (tw twinRecorders) check(t *testing.T) {
	t.Helper()
	got, want := tw.got.Finish(), tw.want.Finish()
	if got.Equal(want) {
		return
	}
	g, w := got.Ops(), want.Ops()
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("op %d: AccessRange gives %+v, per-block Access %+v", i, g[i], w[i])
		}
	}
	t.Fatalf("AccessRange gives %d ops, per-block Access %d", len(g), len(w))
}

// TestAccessRangeMatchesPerBlockAccess: AccessRange emits exactly the
// ops of per-block Access calls, on hand-picked edges and on random
// interleavings with single accesses, compute and sync ops.
func TestAccessRangeMatchesPerBlockAccess(t *testing.T) {
	const blk = config.BlockBytes
	cases := map[string]func(tw twinRecorders){
		"unaligned start": func(tw twinRecorders) {
			tw.accessRange(10*blk+13, 200, false)
			tw.accessRange(40*blk+63, 2, true)
		},
		"single block": func(tw twinRecorders) {
			tw.accessRange(5*blk+8, 8, true)
			tw.accessRange(5*blk+60, 4, false)
			tw.accessRange(9*blk, blk, false)
		},
		"empty range": func(tw twinRecorders) {
			tw.both(func(r *Recorder) { r.Access(3*blk, false) })
			tw.accessRange(3*blk, 0, true)
			tw.accessRange(4*blk, -8, true)
		},
		"first block merges into the open run": func(tw twinRecorders) {
			tw.both(func(r *Recorder) { r.Access(7*blk, false); r.Compute(5) })
			tw.accessRange(7*blk+32, 300, true)
			tw.accessRange(7*blk+332, 300, false)
		},
		"pending gap escapes": func(tw twinRecorders) {
			tw.both(func(r *Recorder) { r.Access(3*blk, false); r.Compute(40) })
			tw.accessRange(3*blk+8, 500, false)
			tw.both(func(r *Recorder) { r.Barrier(0); r.Compute(31) })
			tw.accessRange(100*blk, 500, true)
		},
		"pending gap splits into pads": func(tw twinRecorders) {
			tw.both(func(r *Recorder) { r.Access(3*blk, true); r.Compute(1 << 33) })
			tw.accessRange(3*blk+8, 4*blk, false)
		},
		"crosses block 65535": func(tw twinRecorders) {
			tw.accessRange((ArgEscape-100)*blk+5, 300*blk, true)
			tw.accessRange((ArgEscape-1)*blk, 2*blk, false)
			tw.accessRange(ArgEscape*blk+1, blk, false)
		},
		"crosses the chunk boundary": func(tw twinRecorders) {
			tw.accessRange(blk+3, 10000*blk, false)
			tw.accessRange((1<<20)*blk+1, 5000*blk, true)
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			tw := newTwinRecorders()
			run(tw)
			tw.check(t)
		})
	}
	// Random interleavings: ranges of every length up to past a chunk,
	// around blocks 0, 65535 and 2^20, mixed with single accesses near
	// the last range (so ranges merge into open runs), compute of every
	// gap width and sync ops.
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		tw := newTwinRecorders()
		bases := []memory.Addr{0, (ArgEscape - 300) * blk, (1 << 20) * blk}
		near := bases[0]
		for range 2000 {
			switch rng.IntN(8) {
			case 0, 1, 2:
				start := bases[rng.IntN(len(bases))] + memory.Addr(rng.IntN(600*blk))
				if rng.IntN(3) == 0 {
					start = near + memory.Addr(rng.IntN(blk))
				}
				bytes := 1 + rng.IntN(2*blk)
				switch rng.IntN(4) {
				case 0:
					bytes = rng.IntN(100 * blk)
				case 1:
					bytes = rng.IntN(5000 * blk)
				}
				write := rng.IntN(2) == 0
				tw.accessRange(start, bytes, write)
				near = start + memory.Addr(max(bytes-1, 0))
			case 3:
				addr := near + memory.Addr(rng.IntN(2*blk))
				write := rng.IntN(2) == 0
				tw.both(func(r *Recorder) { r.Access(addr, write) })
			case 4, 5:
				cycles := rng.IntN(64)
				if rng.IntN(50) == 0 {
					cycles = 1<<32 + rng.IntN(100)
				}
				tw.both(func(r *Recorder) { r.Compute(cycles) })
			case 6:
				id := rng.IntN(4)
				tw.both(func(r *Recorder) { r.Lock(id); r.Unlock(id) })
			case 7:
				id := rng.IntN(70000)
				tw.both(func(r *Recorder) { r.Barrier(id) })
			}
		}
		tw.check(t)
	}
}

package trace_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/memory"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// TestRecorderWideGaps drives gaps across the one-byte escape and the
// 32-bit limit through the Recorder and checks that the cursor, Ops and
// a store round trip all read back the same rows, and that the columns
// hold exactly the escapes the layout promises.
func TestRecorderWideGaps(t *testing.T) {
	gaps := []uint64{254, 255, 256, 1<<32 - 1, 1<<32 + 7}
	r := trace.NewRecorder()
	for i, g := range gaps {
		r.Compute(int(g))
		r.Access(memory.Addr(i*config.BlockBytes), false)
	}
	s := r.Finish()

	want := []trace.Op{
		{Kind: trace.Read, Gap: 254, Arg: 0},
		{Kind: trace.Read, Gap: 255, Arg: 1},
		{Kind: trace.Read, Gap: 256, Arg: 2},
		{Kind: trace.Read, Gap: 1<<32 - 1, Arg: 3},
		// 2^32+7 does not fit one gap: a Pad carries 2^32-1, the op 8.
		{Kind: trace.Pad, Gap: 1<<32 - 1},
		{Kind: trace.Read, Gap: 8, Arg: 4},
	}
	if got := s.Ops(); !slices.Equal(got, want) {
		t.Fatalf("Ops() = %+v\nwant      %+v", got, want)
	}
	var viaCursor []trace.Op
	for c := s.Cursor(); ; {
		op, ok := c.Next()
		if !ok {
			break
		}
		viaCursor = append(viaCursor, op)
	}
	if !slices.Equal(viaCursor, want) {
		t.Errorf("cursor rows = %+v, want %+v", viaCursor, want)
	}
	if wantGaps := []uint8{254, 255, 255, 255, 255, 8}; !slices.Equal(s.Gaps, wantGaps) {
		t.Errorf("Gaps = %v, want %v", s.Gaps, wantGaps)
	}
	if wantBig := []uint32{255, 256, 1<<32 - 1, 1<<32 - 1}; !slices.Equal(s.BigGaps, wantBig) {
		t.Errorf("BigGaps = %v, want %v", s.BigGaps, wantBig)
	}

	tr := &trace.Trace{Name: "wide-gaps", CPUs: []trace.Stream{s}}
	back, err := store.Decode(store.Encode(tr))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.CPUs[0].Ops(); !slices.Equal(got, want) {
		t.Errorf("store round trip = %+v, want %+v", got, want)
	}
	if !slices.Equal(back.CPUs[0].Gaps, s.Gaps) || !slices.Equal(back.CPUs[0].BigGaps, s.BigGaps) {
		t.Errorf("store round trip columns = %v/%v, want %v/%v",
			back.CPUs[0].Gaps, back.CPUs[0].BigGaps, s.Gaps, s.BigGaps)
	}
}

// TestRecorderRejectsWideArgs: the arg column is 32 bits, so the largest
// block number records and the next one panics with a message naming it.
func TestRecorderRejectsWideArgs(t *testing.T) {
	r := trace.NewRecorder()
	r.Access(memory.Addr((1<<32-1)*config.BlockBytes), true)
	if ops := r.Finish().Ops(); len(ops) != 1 || ops[0].Arg != 1<<32-1 {
		t.Fatalf("block 2^32-1 recorded as %+v", ops)
	}

	for name, record := range map[string]func(*trace.Recorder){
		"block 2^32": func(r *trace.Recorder) { r.Access(memory.Addr(1<<32*config.BlockBytes), false) },
		"lock -1":    func(r *trace.Recorder) { r.Lock(-1) },
	} {
		msg := func() (msg string) {
			defer func() {
				if p := recover(); p != nil {
					msg, _ = p.(string)
				}
			}()
			r := trace.NewRecorder()
			record(r)
			r.Finish()
			return ""
		}()
		if !strings.Contains(msg, "does not fit in 32 bits") {
			t.Errorf("%s: panic message %q, want the 32-bit limit named", name, msg)
		}
	}
}

// TestStreamBytesPerOp is the deterministic memory guard on the trace
// layout: every generator's streams hold exactly 6 bytes per op (kind,
// gap and 32-bit arg) plus 4 per escaped gap, with no append slack left
// by the Recorder.
func TestStreamBytesPerOp(t *testing.T) {
	cpus := config.DefaultCluster().TotalCPUs()
	for _, info := range apps.All() {
		tr, err := info.Generate(apps.Params{CPUs: cpus, Scale: 8})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		var bytes, big int
		for _, s := range tr.CPUs {
			bytes += cap(s.Kinds) + cap(s.Gaps) + 4*cap(s.BigGaps) + 4*cap(s.Args)
			big += len(s.BigGaps)
		}
		ops := tr.Ops()
		if want := 6*ops + 4*big; bytes != want {
			t.Errorf("%s: columns hold %d bytes for %d ops and %d big gaps, want %d",
				info.Name, bytes, ops, big, want)
		}
		t.Logf("%s: %d ops, %d big gaps, %.3f B/op", info.Name, ops, big, float64(bytes)/float64(ops))
	}
}

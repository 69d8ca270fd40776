package trace_test

import (
	"reflect"
	"runtime"
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

// columnBytes is the memory a stream's columns hold: the capacity of
// every field of Stream times the size of its element type. Walking the
// fields means a column that changes width, or a new one, changes the
// total without this test being edited.
func columnBytes(s trace.Stream) int {
	v := reflect.ValueOf(s)
	n := 0
	for i := range v.NumField() {
		col := v.Field(i)
		n += col.Cap() * int(col.Type().Elem().Size())
	}
	return n
}

// checkBytesPerOp pins the trace layout: exactly 4 bytes per op (kind,
// gap and 16-bit arg) plus 4 per escaped gap and per escaped arg, which
// leaves no room for append slack.
func checkBytesPerOp(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	var bytes, bigGaps, bigArgs int
	for _, s := range tr.CPUs {
		bytes += columnBytes(s)
		bigGaps += len(s.BigGaps)
		bigArgs += len(s.BigArgs)
	}
	ops := tr.Ops()
	if want := 4*ops + 4*bigGaps + 4*bigArgs; bytes != want {
		t.Errorf("%s: columns hold %d bytes for %d ops, %d big gaps and %d big args, want %d",
			name, bytes, ops, bigGaps, bigArgs, want)
	}
	t.Logf("%s: %d ops, %d big gaps, %d big args, %.3f B/op",
		name, ops, bigGaps, bigArgs, float64(bytes)/float64(max(ops, 1)))
}

// TestStreamBytesPerOp is the deterministic memory guard on the trace
// layout, for every generator's streams as the Recorder leaves them and
// as a store round trip decodes them.
func TestStreamBytesPerOp(t *testing.T) {
	cpus := config.DefaultCluster().TotalCPUs()
	for _, info := range apps.All() {
		tr, err := info.Generate(apps.Params{CPUs: cpus, Scale: 8})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		checkBytesPerOp(t, info.Name, tr)
		back, err := store.Decode(store.Encode(tr))
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		checkBytesPerOp(t, info.Name+" decoded", back)
	}
}

// TestRecorderAllocatesTwiceTheStream bounds what building a stream of
// unescaped ops allocates: the chunks it fills and the exact columns
// Finish gathers them into, about twice the stream's bytes. Growing one
// set of columns by append allocated several times more, and that
// garbage set the heap's peak wherever a collection happened to catch
// it.
func TestRecorderAllocatesTwiceTheStream(t *testing.T) {
	const ops = 1 << 18
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := trace.NewRecorder()
	for i := range ops {
		r.Compute(i % 200)
		r.Access(memory.Addr(i%(1<<15)*config.BlockBytes), i%3 == 0)
	}
	s := r.Finish()
	runtime.ReadMemStats(&after)
	if s.Len() != ops {
		t.Fatalf("recorded %d ops, want %d", s.Len(), ops)
	}
	held := columnBytes(s)
	alloc := int(after.TotalAlloc - before.TotalAlloc)
	if alloc > 2*held+held/4 {
		t.Errorf("recording %d ops (%d bytes of columns) allocated %d bytes, %.2fx the stream; want at most 2.25x",
			ops, held, alloc, float64(alloc)/float64(held))
	}
	t.Logf("%d ops: %d bytes of columns, %d allocated (%.2fx)", ops, held, alloc, float64(alloc)/float64(held))
}

// TestArgEscape drives args across the 16-bit escape and up to the
// 32-bit limit through every path that writes or reads the columns:
// the Recorder, Stream.Append, the Cursor, Equal and a store round
// trip. Each must agree on the rows and hold exactly the escapes the
// layout promises.
func TestArgEscape(t *testing.T) {
	args := []uint32{0, 65534, 65535, 65536, 1<<32 - 1}
	r := trace.NewRecorder()
	var want []trace.Op
	for _, a := range args {
		r.Access(memory.Addr(uint64(a)*config.BlockBytes), false)
		want = append(want, trace.Op{Kind: trace.Read, Arg: a})
	}
	recorded := r.Finish()
	appended := trace.StreamOf(want...)

	wantArgs := []uint16{0, 65534, 65535, 65535, 65535}
	wantBig := []uint32{65535, 65536, 1<<32 - 1}
	tr := &trace.Trace{Name: "wide-args", CPUs: []trace.Stream{recorded}}
	back, err := store.Decode(store.Encode(tr))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]trace.Stream{
		"recorder": recorded, "append": appended, "store": back.CPUs[0],
	} {
		if !slices.Equal(s.Args, wantArgs) || !slices.Equal(s.BigArgs, wantBig) {
			t.Errorf("%s: Args/BigArgs = %v/%v, want %v/%v", name, s.Args, s.BigArgs, wantArgs, wantBig)
		}
		var rows []trace.Op
		for c := s.Cursor(); ; {
			op, ok := c.Next()
			if !ok {
				break
			}
			rows = append(rows, op)
		}
		if !slices.Equal(rows, want) {
			t.Errorf("%s: cursor rows = %+v, want %+v", name, rows, want)
		}
		if !s.Equal(recorded) {
			t.Errorf("%s: not Equal to the recorded stream", name)
		}
	}
	checkBytesPerOp(t, "recorder", tr)
	checkBytesPerOp(t, "store", back)

	// Equal compares the escaped values, not only the markers.
	other := trace.StreamOf(want...)
	other.BigArgs[1]++
	if other.Equal(recorded) {
		t.Error("streams that differ in one escaped arg compare Equal")
	}

	// A stream whose arg escapes and BigArgs disagree is rejected before
	// a Cursor could index past BigArgs or misattribute an entry.
	for name, bigArgs := range map[string][]uint32{
		"short": wantBig[:2],
		"long":  append(slices.Clone(wantBig), 7),
	} {
		s := trace.StreamOf(want...)
		s.BigArgs = bigArgs
		err := (&trace.Trace{Name: name, CPUs: []trace.Stream{s}}).Validate()
		if err == nil || !strings.Contains(err.Error(), "escaped args") {
			t.Errorf("%s BigArgs: Validate() = %v, want an escaped-args error", name, err)
		}
	}
}

package trace_test

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/memory"
	"repro/internal/trace"
	"repro/internal/trace/store"
)

// TestRecorderWideGaps drives gaps across the 5-bit escape and the
// 32-bit limit through the Recorder and checks that the cursor, Ops and
// a store round trip all read back the same rows, and that the columns
// hold exactly the escapes the layout promises.
func TestRecorderWideGaps(t *testing.T) {
	gaps := []uint64{30, 31, 256, 1<<32 - 1, 1<<32 + 7}
	r := trace.NewRecorder()
	for i, g := range gaps {
		r.Compute(int(g))
		r.Access(memory.Addr(i*config.BlockBytes), false)
	}
	s := r.Finish()

	want := []trace.Op{
		{Kind: trace.Read, Gap: 30, Arg: 0},
		{Kind: trace.Read, Gap: 31, Arg: 1},
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
	const esc = trace.GapEscape << trace.KindBits
	wantHeads := []uint8{30 << trace.KindBits, esc, esc, esc, esc | uint8(trace.Pad), 8 << trace.KindBits}
	if !slices.Equal(s.Heads, wantHeads) {
		t.Errorf("Heads = %v, want %v", s.Heads, wantHeads)
	}
	if wantWides := []uint32{31, 256, 1<<32 - 1, 1<<32 - 1}; !slices.Equal(s.Wides, wantWides) {
		t.Errorf("Wides = %v, want %v", s.Wides, wantWides)
	}

	tr := &trace.Trace{Name: "wide-gaps", CPUs: []trace.Stream{s}}
	back, err := store.Decode(store.Encode(tr))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.CPUs[0].Ops(); !slices.Equal(got, want) {
		t.Errorf("store round trip = %+v, want %+v", got, want)
	}
	if !slices.Equal(back.CPUs[0].Heads, s.Heads) || !slices.Equal(back.CPUs[0].Wides, s.Wides) {
		t.Errorf("store round trip columns = %v/%v, want %v/%v",
			back.CPUs[0].Heads, back.CPUs[0].Wides, s.Heads, s.Wides)
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

// checkBytesPerOp pins the trace layout: exactly 3 bytes per op (the
// kind+gap head and the 16-bit arg) plus 4 per escaped gap or arg,
// which leaves no room for append slack. It returns the bytes per op.
func checkBytesPerOp(t *testing.T, name string, tr *trace.Trace) float64 {
	t.Helper()
	var bytes, wides int
	for _, s := range tr.CPUs {
		bytes += columnBytes(s)
		wides += len(s.Wides)
	}
	ops := tr.Ops()
	if want := 3*ops + 4*wides; bytes != want {
		t.Errorf("%s: columns hold %d bytes for %d ops and %d wides, want %d",
			name, bytes, ops, wides, want)
	}
	perOp := float64(bytes) / float64(max(ops, 1))
	t.Logf("%s: %d ops, %d wides, %.3f B/op", name, ops, wides, perOp)
	return perOp
}

// maxBytesPerOp is the ceiling on every generator's columns at scale 8
// (fmm, the highest, holds 3.25 B/op): a generator change that pushes
// many gaps past 30 cycles, and so into Wides, crosses it.
const maxBytesPerOp = 3.3

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
		if perOp := checkBytesPerOp(t, info.Name, tr); perOp > maxBytesPerOp {
			t.Errorf("%s: %.3f B/op at scale 8, want at most %.1f", info.Name, perOp, maxBytesPerOp)
		}
		back, err := store.Decode(store.Encode(tr))
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		checkBytesPerOp(t, info.Name+" decoded", back)
	}
}

// TestRecorderAllocatesTwiceTheStream bounds what building a stream
// allocates: the chunks it fills and the exact columns Finish gathers
// them into, about twice the stream's bytes. Most of its gaps (0 to
// 199 cycles) escape, so Wides is chunked too. Growing one set of
// columns by append allocated several times more, and that garbage set
// the heap's peak wherever a collection happened to catch it.
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
// 32-bit limit, one of them on an op whose gap escapes too, through
// every path that writes or reads the columns: the Recorder,
// Stream.Append, the Cursor, Equal and a store round trip. Each must
// agree on the rows and hold exactly the escapes the layout promises,
// an op's escaped gap ahead of its escaped arg in Wides.
func TestArgEscape(t *testing.T) {
	args := []uint32{0, 65534, 65535, 65536, 1<<32 - 1}
	const wideGap = 40 // lands on the op with arg 65536
	r := trace.NewRecorder()
	var want []trace.Op
	for _, a := range args {
		op := trace.Op{Kind: trace.Read, Arg: a}
		if a == 65536 {
			// Compute inside the previous run carries over as this op's
			// gap.
			r.Compute(wideGap)
			op.Gap = wideGap
		}
		r.Access(memory.Addr(uint64(a)*config.BlockBytes), false)
		want = append(want, op)
	}
	recorded := r.Finish()
	appended := trace.StreamOf(want...)

	wantHeads := []uint8{0, 0, 0, trace.GapEscape << trace.KindBits, 0}
	wantArgs := []uint16{0, 65534, 65535, 65535, 65535}
	wantWides := []uint32{65535, wideGap, 65536, 1<<32 - 1}
	tr := &trace.Trace{Name: "wide-args", CPUs: []trace.Stream{recorded}}
	back, err := store.Decode(store.Encode(tr))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]trace.Stream{
		"recorder": recorded, "append": appended, "store": back.CPUs[0],
	} {
		if !slices.Equal(s.Heads, wantHeads) || !slices.Equal(s.Args, wantArgs) || !slices.Equal(s.Wides, wantWides) {
			t.Errorf("%s: Heads/Args/Wides = %v/%v/%v, want %v/%v/%v",
				name, s.Heads, s.Args, s.Wides, wantHeads, wantArgs, wantWides)
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
	for i := range wantWides {
		other := trace.StreamOf(want...)
		other.Wides[i]++
		if other.Equal(recorded) {
			t.Errorf("streams that differ in wide entry %d compare Equal", i)
		}
	}

	// A stream whose escapes and Wides disagree is rejected before a
	// Cursor could index past Wides or misattribute an entry.
	for name, wides := range map[string][]uint32{
		"short": wantWides[:3],
		"long":  append(slices.Clone(wantWides), 7),
	} {
		s := trace.StreamOf(want...)
		s.Wides = wides
		err := (&trace.Trace{Name: name, CPUs: []trace.Stream{s}}).Validate()
		if err == nil || !strings.Contains(err.Error(), "escaped gaps and args") {
			t.Errorf("%s Wides: Validate() = %v, want an escape-count error", name, err)
		}
	}
}

// TestRecorderFillsWholeCacheLines: a World's generators write one
// Recorder per CPU concurrently, so a recorder that shares a cache line
// with its neighbour's pays for false sharing. Measured over 10
// alternating pairs of local-s1 generation, a 136-byte recorder (Go's
// 144-byte size class, whose objects straddle lines) ran 11-15% slower
// than one padded to 192 bytes (ratio 1.016, faster in 6 of 10 pairs).
// A size that is a whole number of lines lands in a size class whose
// objects start on line boundaries.
func TestRecorderFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(trace.Recorder{}); n%64 != 0 {
		t.Errorf("Recorder is %d bytes, not a whole number of 64-byte cache lines", n)
	}
}

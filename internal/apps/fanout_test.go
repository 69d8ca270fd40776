package apps

import (
	"math"
	"strings"
	"testing"
)

// TestFanOutIsDeterministic: the ParallelIndep segments give the same
// traces and bit-identical results whether their bodies run one after
// another (one P) or concurrently (four). Under -race it also checks
// every converted segment for data races at a real input size.
func TestFanOutIsDeterministic(t *testing.T) {
	serialTr, serialRes := generatePinned(t, 1)
	parTr, parRes := generatePinned(t, 4)
	for name, tr := range serialTr {
		if !tr.Equal(parTr[name]) {
			t.Errorf("%s: trace differs between GOMAXPROCS 1 and 4", name)
		}
		a, b := serialRes[name], parRes[name]
		if len(a) != len(b) {
			t.Errorf("%s: %d results under GOMAXPROCS 1, %d under 4", name, len(a), len(b))
			continue
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Errorf("%s: result %d is %v under GOMAXPROCS 1, %v under 4", name, i, a[i], b[i])
				break
			}
		}
	}
}

// TestWorldStateInsideParallelIndepPanics: naming a lock, allocating a
// region or emitting a barrier from a concurrent body would race on the
// World, so each panics with a message naming the call. Two CPUs keep
// the bodies on the test goroutine, where the panic can be recovered.
func TestWorldStateInsideParallelIndepPanics(t *testing.T) {
	cases := map[string]func(w *World){
		"LockID":            func(w *World) { w.LockID("q") },
		"region allocation": func(w *World) { w.AllocF64("scratch", 8) },
		"Barrier":           func(w *World) { w.Barrier() },
	}
	for op, call := range cases {
		w := NewWorld("t", 2)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, op+" inside ParallelIndep") {
					t.Errorf("%s: panic %q, want one naming the call", op, msg)
				}
			}()
			w.ParallelIndep(func(c *Ctx) { call(w) })
		}()
	}
	// Outside the segment the World is usable as before.
	w := NewWorld("t", 2)
	w.ParallelIndep(func(c *Ctx) { c.Compute(1) })
	if id := w.LockID("q"); id != 0 {
		t.Errorf("first lock after ParallelIndep has id %d, want 0", id)
	}
}

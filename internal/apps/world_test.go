package apps

import (
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// mustFinish finishes w's trace, failing the test on an error.
func mustFinish(t *testing.T, w *World) *trace.Trace {
	t.Helper()
	tr, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWorldBarrierBalance(t *testing.T) {
	w := NewWorld("t", 4)
	w.Phase()
	w.Parallel(func(c *Ctx) { c.Compute(10) })
	w.Barrier()
	w.Barrier()
	tr, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Phase emits a leading barrier, so 3 total.
	if tr.Barriers != 3 {
		t.Errorf("barriers = %d, want 3", tr.Barriers)
	}
}

func TestWorldLockNames(t *testing.T) {
	w := NewWorld("t", 2)
	a := w.LockID("tree")
	b := w.LockID("queue")
	if a == b {
		t.Error("distinct names share a lock id")
	}
	if w.LockID("tree") != a {
		t.Error("lock id not stable")
	}
}

func TestTouchRangeCoversAllBlocks(t *testing.T) {
	w := NewWorld("t", 1)
	arr := w.AllocF64("x", 1024) // 8 KB = 128 blocks
	w.Phase()
	w.Parallel(func(c *Ctx) {
		c.TouchRange(arr.Addr(0), 1024*8, false)
	})
	tr := mustFinish(t, w)
	mem := 0
	for _, op := range tr.CPUs[0].Ops() {
		if op.Kind == trace.Read {
			mem++
		}
	}
	if mem != 128 {
		t.Errorf("touched %d blocks, want 128", mem)
	}
}

func TestTouchRecMultiBlockField(t *testing.T) {
	w := NewWorld("t", 1)
	rec := w.AllocRec("cells", 4, 128) // two blocks per record
	w.Parallel(func(c *Ctx) {
		c.TouchRec(rec, 1, 0, 128, true)
	})
	tr := mustFinish(t, w)
	writes := 0
	for _, op := range tr.CPUs[0].Ops() {
		if op.Kind == trace.Write {
			writes++
		}
	}
	if writes != 2 {
		t.Errorf("recorded %d writes, want 2 (128-byte field)", writes)
	}
}

func TestLoadStoreRecordAndCompute(t *testing.T) {
	w := NewWorld("t", 1)
	arr := w.AllocF64("x", 16)
	w.Parallel(func(c *Ctx) {
		c.Store(arr, 0, 4.5)
		if got := c.Load(arr, 0); got != 4.5 {
			t.Errorf("load = %v, want 4.5", got)
		}
		c.Store(arr, 0, c.Load(arr, 0)*2)
	})
	if arr.Data[0] != 9 {
		t.Errorf("data = %v, want 9", arr.Data[0])
	}
}

func TestRegionsArePageDisjoint(t *testing.T) {
	w := NewWorld("t", 1)
	a := w.AllocF64("a", 1)
	b := w.AllocI64("b", 1)
	if a.Addr(0).Page() == b.Addr(0).Page() {
		t.Error("distinct allocations share a page")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng diverged")
		}
	}
	c := newRNG(43)
	diff := false
	for i := 0; i < 10; i++ {
		if newRNG(42).next() != c.next() {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produce identical streams")
	}
}

func TestRNGBounds(t *testing.T) {
	r := newRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.intn(17); v < 0 || v >= 17 {
			t.Fatalf("intn out of range: %d", v)
		}
		if f := r.float64(); f < 0 || f >= 1 {
			t.Fatalf("float64 out of range: %v", f)
		}
	}
}

func TestSyntheticKindsGenerate(t *testing.T) {
	kinds := []SyntheticKind{SynPrivate, SynReadShared, SynMigratory, SynWriteShared, SynStream, SynThrash}
	for _, k := range kinds {
		tr, err := GenerateSynthetic(k, SyntheticParams{CPUs: 32, KBPerNode: 64, Iters: 2})
		if err != nil {
			t.Errorf("%s: %v", k, err)
			continue
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", k, err)
		}
		if tr.Ops() == 0 {
			t.Errorf("%s: empty trace", k)
		}
	}
	if _, err := GenerateSynthetic("nope", SyntheticParams{}); err == nil {
		t.Error("unknown synthetic kind accepted")
	}
}

func TestSyntheticFootprints(t *testing.T) {
	tr, err := GenerateSynthetic(SynThrash, SyntheticParams{CPUs: 32, KBPerNode: 256, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Thrash streams 4x the per-node quota.
	if tr.Footprint < 4*256*1024 {
		t.Errorf("thrash footprint = %d, want >= 1 MB", tr.Footprint)
	}
	_ = config.PageBytes
}

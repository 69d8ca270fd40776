package trace

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachCPUCoversEveryIndexOnce runs the pool at sizes on both sides
// of the serial threshold and under one and several Ps.
func TestEachCPUCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 4, 32, 100} {
			calls := make([]atomic.Int32, n)
			EachCPU(n, func(cpu int) { calls[cpu].Add(1) })
			for i := range calls {
				if got := calls[i].Load(); got != 1 {
					t.Errorf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, got)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestEachCPUSerialBelowThreshold: fewer than four indices, or one P,
// run in index order on the calling goroutine. The unsynchronized
// append would be a race (caught by -race) if they did not.
func TestEachCPUSerialBelowThreshold(t *testing.T) {
	check := func(n int) {
		t.Helper()
		var order []int
		EachCPU(n, func(cpu int) { order = append(order, cpu) })
		if len(order) != n {
			t.Fatalf("n %d: %d calls", n, len(order))
		}
		for i, cpu := range order {
			if cpu != i {
				t.Fatalf("n %d: call %d was index %d, want serial order %v", n, i, cpu, order)
			}
		}
	}
	check(parallelThreshold - 1)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	check(32)
}

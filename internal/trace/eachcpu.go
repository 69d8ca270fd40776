package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the CPU count below which EachCPU stays on the
// calling goroutine: tiny traces and hostile decoder inputs do not pay
// for a pool.
const parallelThreshold = 4

// EachCPU calls f once for every index in [0, n), fanning the calls out
// over up to GOMAXPROCS worker goroutines that claim indices from a
// shared counter. With fewer than parallelThreshold indices, or a single
// usable core, it runs them in order on the calling goroutine. It
// returns when every call has; f must be safe to run concurrently for
// distinct indices. It is the one per-CPU fan-out of trace generation
// (World.ParallelIndep and World.Finish) and validation.
//
// The fan-out pays for itself on a 2-vCPU host. Against a copy whose
// EachCPU always ran serially, 8 alternating pairs of cmd/dsmbench
// (`run.sh --workload W --seed 0 --seconds 3 --trace 0`, 2-vCPU Xeon
// VM) measured median setup_s 0.049 s against 0.076 s serial on
// remote-ring-s2 and 0.195 s against 0.292 s on local-s1, faster in
// all 8 pairs of each. BenchmarkGenerate at -cpu 2 agreed: radix/s2
// 46 ms against 65 ms serial, ocean/s1 74 ms against 97 ms (medians
// of 3).
func EachCPU(n int, f func(cpu int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if n < parallelThreshold || workers < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

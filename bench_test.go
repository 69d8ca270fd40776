// Ablations over the simulator's design choices, plus
// microbenchmarks of two helpers no end-to-end measurement isolates.
// The experiments, replay, generation and hot paths are timed by
// cmd/dsmbench; the hot paths' allocations are guarded by
// alloc_guard_test.go.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/trace"
)

// benchScale keeps one ablation iteration well under a second.
const benchScale = 8

// ---------------------------------------------------------------------
// Ablations: the simulator's design choices.

// BenchmarkAblationBlockCacheSize sweeps the CC-NUMA block cache from a
// quarter to 4x the paper's 64 KB: how much SRAM does the cluster cache
// need before R-NUMA's DRAM page cache stops mattering?
func BenchmarkAblationBlockCacheSize(b *testing.B) {
	info, _ := apps.ByName("radix")
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	for _, kb := range []int{16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			spec := dsm.CCNUMA()
			spec.BlockCacheBytes = kb * 1024
			var last *stats.Sim
			for i := 0; i < b.N; i++ {
				sim, err := dsm.Run(tr, spec, cl, tm, th)
				if err != nil {
					b.Fatal(err)
				}
				last = sim
			}
			b.ReportMetric(float64(last.TotalRemoteMisses()), "remote-misses")
		})
	}
}

// BenchmarkAblationPageCacheSize sweeps the R-NUMA page cache (the
// Figure 8 cost question) on the capacity-bound workload.
func BenchmarkAblationPageCacheSize(b *testing.B) {
	info, _ := apps.ByName("radix")
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	for _, frac := range []int{8, 4, 2, 1} {
		b.Run(fmt.Sprintf("1_%d", frac), func(b *testing.B) {
			spec := dsm.RNUMA()
			spec.PageCacheBytes = config.PageCacheBytes / frac
			var last *stats.Sim
			for i := 0; i < b.N; i++ {
				sim, err := dsm.Run(tr, spec, cl, tm, th)
				if err != nil {
					b.Fatal(err)
				}
				last = sim
			}
			b.ReportMetric(float64(last.PageOpsByKind(stats.Replacement)), "replacements")
		})
	}
}

// BenchmarkAblationRNUMAThreshold sweeps the relocation threshold: the
// paper's 32 sits between eager thrashing and missed opportunity.
func BenchmarkAblationRNUMAThreshold(b *testing.B) {
	info, _ := apps.ByName("lu")
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	tm := config.Default()
	for _, thr := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("T%d", thr), func(b *testing.B) {
			th := config.DefaultThresholds()
			th.RNUMAThreshold = thr
			var last *stats.Sim
			for i := 0; i < b.N; i++ {
				sim, err := dsm.Run(tr, dsm.RNUMA(), cl, tm, th)
				if err != nil {
					b.Fatal(err)
				}
				last = sim
			}
			b.ReportMetric(float64(last.PageOpsByKind(stats.Relocation)), "relocations")
			b.ReportMetric(float64(last.ExecCycles), "cycles")
		})
	}
}

// BenchmarkAblationNetworkLatency sweeps the wire latency (the Figure 7
// axis) on one workload for all three systems.
func BenchmarkAblationNetworkLatency(b *testing.B) {
	info, _ := apps.ByName("ocean")
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	th := config.DefaultThresholds()
	for _, f := range []int64{1, 4, 8} {
		for _, spec := range []dsm.Spec{dsm.CCNUMA(), dsm.RNUMA()} {
			b.Run(fmt.Sprintf("%dx/%s", f, spec.Name), func(b *testing.B) {
				tm := config.Default().ScaleNetwork(f)
				var last *stats.Sim
				for i := 0; i < b.N; i++ {
					sim, err := dsm.Run(tr, spec, cl, tm, th)
					if err != nil {
						b.Fatal(err)
					}
					last = sim
				}
				b.ReportMetric(float64(last.ExecCycles), "cycles")
			})
		}
	}
}

// BenchmarkAblationReactiveVsStatic compares R-NUMA's reactive page
// selection against the static S-COMA policy on the page-cache-bound
// workload: the reactive filter admits only pages that earn their frame.
func BenchmarkAblationReactiveVsStatic(b *testing.B) {
	info, _ := apps.ByName("radix")
	tr, err := info.Generate(apps.Params{CPUs: 32, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()
	for _, spec := range []dsm.Spec{dsm.RNUMA(), dsm.SCOMA()} {
		b.Run(spec.Name, func(b *testing.B) {
			var last *stats.Sim
			for i := 0; i < b.N; i++ {
				sim, err := dsm.Run(tr, spec, cl, tm, th)
				if err != nil {
					b.Fatal(err)
				}
				last = sim
			}
			b.ReportMetric(float64(last.ExecCycles), "cycles")
			b.ReportMetric(float64(last.PageOpsByKind(stats.Replacement)), "replacements")
		})
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks of the simulator's hot paths.

func BenchmarkResourceAcquire(b *testing.B) {
	r := engine.NewResource("bus")
	var t engine.Time
	for i := 0; i < b.N; i++ {
		t = r.Acquire(t, 24)
	}
}

func BenchmarkRecorderAccess(b *testing.B) {
	r := trace.NewRecorder()
	for i := 0; i < b.N; i++ {
		r.Access(memory.Addr(i*8), i%5 == 0)
	}
}

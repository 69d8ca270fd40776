package repro

import (
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The fault traces are synthetic traces, each engineered to drive the
// DSM fault path through one miss class; the allocation guard replays
// them as its fault-path cases. These index them.
const (
	faultCold = iota
	faultCoherence
	faultCapacity
	numFaultTraces
)

// faultTraces builds the fault traces once per test binary.
var faultTraces = sync.OnceValue(buildFaultTraces)

// faultTrace builds a trace in which CPU 0 first-touches pages [0, P)
// before the parallel phase (homing them at node 0), re-touches them
// right after the phase marker so later touchers do not re-home them,
// and then every CPU runs the per-CPU measure stream.
func faultTrace(name string, pages int, cl config.Cluster, measure func(r *trace.Recorder, cpu int)) *trace.Trace {
	cpus := cl.TotalCPUs()
	tr := &trace.Trace{
		Name:      name,
		CPUs:      make([]trace.Stream, cpus),
		Barriers:  2,
		Footprint: uint64(pages) * config.PageBytes,
	}
	for c := 0; c < cpus; c++ {
		r := trace.NewRecorder()
		if c == 0 {
			for p := 0; p < pages; p++ {
				r.Access(memory.Page(p).Addr(), false)
			}
		}
		r.Barrier(0)
		r.Phase()
		if c == 0 {
			// Claim post-phase first touch so the measure streams below
			// see remote pages, not first-touch re-homing.
			for p := 0; p < pages; p++ {
				r.Access(memory.Page(p).Addr(), false)
			}
		}
		r.Barrier(1)
		measure(r, c)
		tr.CPUs[c] = r.Finish()
	}
	return tr
}

// touchRange reads every block of pages [lo, hi).
func touchRange(r *trace.Recorder, lo, hi int) {
	for p := lo; p < hi; p++ {
		for blk := 0; blk < config.BlocksPerPage; blk++ {
			a := memory.Page(p).Addr() + memory.Addr(blk*config.BlockBytes)
			r.Access(a, false)
		}
	}
}

func buildFaultTraces() [numFaultTraces]*trace.Trace {
	cl := config.DefaultCluster()
	cpus := cl.TotalCPUs()
	var ft [numFaultTraces]*trace.Trace

	// Cold: every CPU reads a private span of remote blocks exactly
	// once — all measured misses are cold remote misses (plus the soft
	// page faults that map the pages).
	const coldPerCPU = 8
	ft[faultCold] = faultTrace("fault-cold", coldPerCPU*cpus, cl, func(r *trace.Recorder, cpu int) {
		touchRange(r, cpu*coldPerCPU, (cpu+1)*coldPerCPU)
	})

	// Coherence: one CPU on each of two distinct nodes write-ping-pongs
	// over a small shared span; every refetch follows an invalidation.
	const sharedPages, rounds = 4, 8
	ft[faultCoherence] = faultTrace("fault-coherence", sharedPages, cl, func(r *trace.Recorder, cpu int) {
		if cpu != 0 && cpu != cl.CPUsPerNode {
			return
		}
		for round := 0; round < rounds; round++ {
			for p := 0; p < sharedPages; p++ {
				for blk := 0; blk < config.BlocksPerPage; blk++ {
					a := memory.Page(p).Addr() + memory.Addr(blk*config.BlockBytes)
					r.Access(a, true)
				}
			}
		}
	})

	// Capacity/conflict: every CPU sweeps a private remote span larger
	// than its share of the node's caches, several times — after the
	// first sweep every miss is a capacity/conflict refetch.
	const capPerCPU, sweeps = 16, 4
	ft[faultCapacity] = faultTrace("fault-capacity", capPerCPU*cpus, cl, func(r *trace.Recorder, cpu int) {
		for s := 0; s < sweeps; s++ {
			touchRange(r, cpu*capPerCPU, (cpu+1)*capPerCPU)
		}
	})
	return ft
}

// scomaSpec is R-NUMA with a deliberately tiny page cache, so the
// capacity trace drives relocations and frame replacements.
func scomaSpec() dsm.Spec {
	spec := dsm.RNUMA()
	spec.PageCacheBytes = 8 * config.PageBytes
	return spec
}

// runTrace replays one of the fault traces with the audit on and
// returns its statistics.
func runTrace(t *testing.T, tr *trace.Trace, spec dsm.Spec) *stats.Sim {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace %s invalid: %v", tr.Name, err)
	}
	sim, err := dsm.RunWithOptions(tr, spec, config.DefaultCluster(), config.Default(), config.DefaultThresholds(),
		dsm.RunOptions{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestFaultTracesDriveIntendedMissClasses pins the fault traces to
// their advertised miss profiles: each fault-path case of the
// allocation guard must actually spend its remote misses in the class
// it is named for, otherwise its ceiling guards the wrong path.
func TestFaultTracesDriveIntendedMissClasses(t *testing.T) {
	ft := faultTraces()
	cold := runTrace(t, ft[faultCold], dsm.CCNUMA())
	if c, tot := cold.RemoteMissesByClass(stats.Cold), cold.TotalRemoteMisses(); tot == 0 || c*10 < tot*9 {
		t.Errorf("cold trace: %d/%d remote misses cold, want >= 90%%", c, tot)
	}

	coher := runTrace(t, ft[faultCoherence], dsm.CCNUMA())
	if c, tot := coher.RemoteMissesByClass(stats.Coherence), coher.TotalRemoteMisses(); tot == 0 || c*2 < tot {
		t.Errorf("coherence trace: %d/%d remote misses coherence, want majority", c, tot)
	}

	capa := runTrace(t, ft[faultCapacity], dsm.CCNUMA())
	if c, tot := capa.RemoteMissesByClass(stats.CapacityConflict), capa.TotalRemoteMisses(); tot == 0 || c*2 < tot {
		t.Errorf("capacity trace: %d/%d remote misses capacity/conflict, want majority", c, tot)
	}

	// The S-COMA variant must actually exercise the relocation and
	// replacement machinery of the pageop layer.
	scoma := runTrace(t, ft[faultCapacity], scomaSpec())
	if scoma.PageOpsByKind(stats.Relocation) == 0 || scoma.PageOpsByKind(stats.Replacement) == 0 {
		t.Errorf("scoma trace: relocations=%d replacements=%d, want both > 0",
			scoma.PageOpsByKind(stats.Relocation), scoma.PageOpsByKind(stats.Replacement))
	}
}

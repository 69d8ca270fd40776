package apps

import (
	"fmt"

	"repro/internal/trace"
)

// SyntheticKind selects a parameterized sharing-pattern microworkload.
// These exist to exercise specific protocol behaviours in isolation:
// unit tests assert that each system reacts to them the way the paper's
// qualitative analysis (Table 1) predicts.
type SyntheticKind string

const (
	// SynPrivate streams over per-processor private regions; after
	// first touch there is no remote traffic.
	SynPrivate SyntheticKind = "private"

	// SynReadShared has every processor repeatedly read one node's
	// region: a page replication candidate.
	SynReadShared SyntheticKind = "readshared"

	// SynMigratory moves a region's exclusive user from node to node in
	// long phases: a page migration candidate.
	SynMigratory SyntheticKind = "migratory"

	// SynWriteShared has all processors read and write one region at
	// fine grain: high-degree read-write sharing that only fine-grain
	// caching helps.
	SynWriteShared SyntheticKind = "writeshared"

	// SynStream has every processor stream repeatedly over a region far
	// larger than the block cache but fitting main memory: the
	// capacity-miss pattern R-NUMA relocations absorb.
	SynStream SyntheticKind = "stream"

	// SynThrash is SynStream with a footprint exceeding the page cache,
	// forcing R-NUMA page replacement.
	SynThrash SyntheticKind = "thrash"
)

// SyntheticParams sizes a synthetic workload.
type SyntheticParams struct {
	CPUs int
	// KBPerNode is the region footprint per owning node in KB.
	KBPerNode int
	// Iters is the number of sweeps.
	Iters int
}

// GenerateSynthetic builds a microworkload trace.
func GenerateSynthetic(kind SyntheticKind, sp SyntheticParams) (*trace.Trace, error) {
	if sp.CPUs <= 0 {
		sp.CPUs = 32
	}
	if sp.KBPerNode <= 0 {
		sp.KBPerNode = 256
	}
	if sp.Iters <= 0 {
		sp.Iters = 8
	}
	w := NewWorld("synthetic-"+string(kind), sp.CPUs)
	bytesPer := sp.KBPerNode * 1024

	switch kind {
	case SynPrivate:
		regs := make([]*F64, sp.CPUs)
		for i := range regs {
			regs[i] = w.AllocF64(fmt.Sprintf("priv%d", i), bytesPer/8)
		}
		w.Phase()
		w.ParallelIndep(func(c *Ctx) {
			c.TouchRange(regs[c.CPU].Addr(0), bytesPer, true)
		})
		w.Barrier()
		for it := 0; it < sp.Iters; it++ {
			w.ParallelIndep(func(c *Ctx) {
				c.TouchRange(regs[c.CPU].Addr(0), bytesPer, false)
				c.TouchRange(regs[c.CPU].Addr(0), bytesPer, true)
				c.Compute(bytesPer / 16)
			})
			w.Barrier()
		}

	case SynReadShared:
		shared := w.AllocF64("hot", bytesPer/8)
		w.Phase()
		// cpu 0's node owns the region
		w.ParallelIndep(func(c *Ctx) {
			if c.CPU == 0 {
				c.TouchRange(shared.Addr(0), bytesPer, true)
			}
		})
		w.Barrier()
		for it := 0; it < sp.Iters; it++ {
			w.ParallelIndep(func(c *Ctx) {
				c.TouchRange(shared.Addr(0), bytesPer, false)
				c.Compute(bytesPer / 32)
			})
			w.Barrier()
		}

	case SynMigratory:
		shared := w.AllocF64("mig", bytesPer/8)
		w.Phase()
		w.ParallelIndep(func(c *Ctx) {
			if c.CPU == 0 {
				c.TouchRange(shared.Addr(0), bytesPer, true)
			}
		})
		w.Barrier()
		// Each phase, a single processor on a different node owns the
		// region exclusively and sweeps it many times.
		for ph := 0; ph < sp.Iters; ph++ {
			ownerCPU := (ph % (sp.CPUs / 4)) * 4 // one CPU per node in turn
			w.ParallelIndep(func(c *Ctx) {
				if c.CPU != ownerCPU {
					return
				}
				for s := 0; s < 12; s++ {
					c.TouchRange(shared.Addr(0), bytesPer, false)
					c.TouchRange(shared.Addr(0), bytesPer, true)
					c.Compute(bytesPer / 16)
				}
			})
			w.Barrier()
		}

	case SynWriteShared:
		shared := w.AllocF64("ws", bytesPer/8)
		n := bytesPer / 8
		w.Phase()
		w.ParallelIndep(func(c *Ctx) {
			if c.CPU == 0 {
				c.TouchRange(shared.Addr(0), bytesPer, true)
			}
		})
		w.Barrier()
		r := newRNG(5)
		for it := 0; it < sp.Iters; it++ {
			seeds := make([]uint64, sp.CPUs)
			for i := range seeds {
				seeds[i] = r.next()
			}
			w.Parallel(func(c *Ctx) {
				lr := newRNG(seeds[c.CPU])
				for k := 0; k < n/sp.CPUs; k++ {
					i := lr.intn(n)
					if k%4 == 0 {
						c.Store(shared, i, float64(k))
					} else {
						c.Load(shared, i)
					}
					c.Compute(4)
				}
			})
			w.Barrier()
		}

	case SynStream, SynThrash:
		// Region owned by node 0; all other nodes stream it.
		mult := 1
		if kind == SynThrash {
			mult = 4
		}
		total := bytesPer * mult
		shared := w.AllocF64("big", total/8)
		w.Phase()
		w.ParallelIndep(func(c *Ctx) {
			if c.CPU == 0 {
				c.TouchRange(shared.Addr(0), total, true)
			}
		})
		w.Barrier()
		for it := 0; it < sp.Iters; it++ {
			w.ParallelIndep(func(c *Ctx) {
				if c.CPU%4 != 0 || c.CPU == 0 {
					return
				}
				c.TouchRange(shared.Addr(0), total, false)
				c.Compute(total / 32)
			})
			w.Barrier()
		}

	default:
		return nil, fmt.Errorf("apps: unknown synthetic kind %q", kind)
	}

	return w.Finish()
}

func init() {
	register(Info{
		Name:        "synthetic",
		Description: "Parameterized sharing-pattern microworkload (writeshared variant)",
		Input:       "256 KB/node, 8 sweeps",
		ReadsSeed:   false,
		Generate: func(p Params) (*trace.Trace, error) {
			p = p.norm()
			return GenerateSynthetic(SynWriteShared, SyntheticParams{CPUs: p.CPUs, KBPerNode: 256 / p.Scale * 4, Iters: 8})
		},
	})
	register(Info{
		Name:        "migratory",
		Description: "Migratory-sharing microworkload (region ownership ping-pongs between nodes)",
		Input:       "1 MB/node, 8 phases",
		ReadsSeed:   false,
		Generate: func(p Params) (*trace.Trace, error) {
			p = p.norm()
			kb := 1024 / p.Scale
			if kb < 32 {
				kb = 32
			}
			return GenerateSynthetic(SynMigratory, SyntheticParams{CPUs: p.CPUs, KBPerNode: kb, Iters: 8})
		},
	})
}

package apps

import (
	"fmt"

	"repro/internal/trace"
)

// radixApp implements the SPLASH-2 parallel integer radix sort. Each pass
// over one digit builds per-processor histograms of the local key
// partition, combines them into global rank offsets with a prefix step,
// and permutes keys into a destination array at the computed positions.
// The scattered remote writes of the permutation phase are the traffic
// the paper studies: every node writes all over the destination array,
// so pages are write-shared at high degree and only fine-grain caching
// of a footprint larger than the page cache can help.
type radixApp struct {
	n     int // keys
	radix int // buckets per digit
	bits  int // key width in bits
	cpus  int
}

func newRadix(p Params) *radixApp {
	p = p.norm()
	n := 1 << 20 / p.Scale
	if n < 1024 {
		n = 1024
	}
	return &radixApp{n: n, radix: 1024, bits: 20, cpus: p.CPUs}
}

// GenerateRadix builds the radix trace and returns the sorted keys for
// verification.
func GenerateRadix(p Params) (*trace.Trace, []int32, error) {
	a := newRadix(p)
	w := NewWorld("radix", a.cpus)
	n, cpus := a.n, a.cpus
	digits := (a.bits + 9) / 10

	src := w.AllocI32("keys", n)
	dst := w.AllocI32("keys2", n)
	// Per-processor histogram/rank arrays, shared because the prefix
	// step reads them all.
	hist := w.AllocI64("histograms", cpus*a.radix)
	rank := w.AllocI64("ranks", cpus*a.radix)

	// Sequential init of random keys.
	r := newRNG(777 + p.Seed)
	w.Serial(func(c *Ctx) {
		for i := 0; i < n; i++ {
			src.Data[i] = int32(r.intn(1 << a.bits))
		}
		c.TouchRange(src.Addr(0), n*4, true)
		c.Compute(n / 4)
	})
	w.Phase()

	per := (n + cpus - 1) / cpus
	// Parallel first touch of each partition of both key arrays.
	w.ParallelIndep(func(c *Ctx) {
		lo, hi := c.CPU*per, (c.CPU+1)*per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			return
		}
		c.TouchRange(src.Addr(lo), (hi-lo)*4, false)
		c.TouchRange(dst.Addr(lo), (hi-lo)*4, true)
		c.Compute((hi - lo) / 8)
	})
	w.Barrier()

	from, to := src, dst
	for d := 0; d < digits; d++ {
		shift := uint(10 * d)
		// Local histogram over the processor's partition.
		w.ParallelIndep(func(c *Ctx) {
			lo, hi := c.CPU*per, (c.CPU+1)*per
			if hi > n {
				hi = n
			}
			base := c.CPU * a.radix
			for i := base; i < base+a.radix; i++ {
				hist.Data[i] = 0
			}
			c.TouchRange(hist.Addr(base), a.radix*8, true)
			for i := lo; i < hi; i++ {
				k := c.LoadI32(from, i)
				dig := int(uint32(k)>>shift) & (a.radix - 1)
				hist.Data[base+dig]++
				c.Compute(3)
			}
			// The histogram bins stay L1-resident through the scan;
			// account one write pass at the end.
			c.TouchRange(hist.Addr(base), a.radix*8, true)
		})
		w.Barrier()

		// Prefix: processor 0 computes global rank offsets by reading
		// every processor's histogram (the SPLASH-2 tree reduction is
		// logically equivalent; the sequential scan preserves the
		// all-histograms-read sharing pattern).
		w.Serial(func(c *Ctx) {
			pos := int64(0)
			for dig := 0; dig < a.radix; dig++ {
				for cp := 0; cp < cpus; cp++ {
					c.r.Access(hist.Addr(cp*a.radix+dig), false)
					c.r.Access(rank.Addr(cp*a.radix+dig), true)
					rank.Data[cp*a.radix+dig] = pos
					pos += hist.Data[cp*a.radix+dig]
					c.Compute(2)
				}
			}
		})
		w.Barrier()

		// Permutation: scatter keys to their ranked positions.
		w.ParallelIndep(func(c *Ctx) {
			lo, hi := c.CPU*per, (c.CPU+1)*per
			if hi > n {
				hi = n
			}
			base := c.CPU * a.radix
			c.TouchRange(rank.Addr(base), a.radix*8, false)
			for i := lo; i < hi; i++ {
				k := c.LoadI32(from, i)
				dig := int(uint32(k)>>shift) & (a.radix - 1)
				p := rank.Data[base+dig]
				rank.Data[base+dig]++
				c.StoreI32(to, int(p), k)
				c.Compute(4)
			}
		})
		w.Barrier()
		from, to = to, from
	}

	t, err := w.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("radix: %w", err)
	}
	return t, from.Data, nil
}

func init() {
	register(Info{
		Name:        "radix",
		Description: "Parallel integer radix sort",
		Input:       "1M integers, radix 1024",
		ReadsSeed:   true,
		Generate: func(p Params) (*trace.Trace, error) {
			t, _, err := GenerateRadix(p)
			return t, err
		},
	})
}

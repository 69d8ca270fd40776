package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/interconnect"
	"repro/internal/memory"
)

// The probe loops time single hot-path calls in isolation, with fixed
// inputs, so a change to one structure shows in one number even when
// the workloads' end-to-end times hide it in noise. Each loop replays
// the same pseudo-random sequence on every run.

const probeIters = 1 << 20

// probeSink keeps the loops' results live.
var probeSink uint64

// lcg is a 64-bit linear congruential generator (Knuth's MMIX
// constants); its high bits drive every probe and query sequence.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g) >> 16
}

// nsPerIter times f, best of three, in nanoseconds per iteration.
func nsPerIter(f func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return float64(best) / probeIters
}

// probeL1 looks blocks up in a half-filled processor cache: about half
// the probes hit.
func probeL1() float64 {
	c := cache.NewL1(config.L1Bytes)
	sets := uint64(c.Sets())
	for b := uint64(0); b < sets; b += 2 {
		c.Insert(memory.Block(b), cache.Shared)
	}
	return nsPerIter(func() {
		g := lcg(1)
		var acc uint64
		for i := 0; i < probeIters; i++ {
			acc += uint64(c.Lookup(memory.Block(g.next() % (2 * sets))))
		}
		probeSink += acc
	})
}

// probeBlockCache looks blocks up, with LRU promotion, in a full 4-way
// block cache over twice its capacity.
func probeBlockCache() float64 {
	c := cache.NewBlockCache(config.BlockCacheBytes, config.BlockCacheWays)
	blocks := uint64(config.BlockCacheBytes / config.BlockBytes)
	for b := uint64(0); b < blocks; b++ {
		c.Insert(memory.Block(b), cache.Shared)
	}
	return nsPerIter(func() {
		g := lcg(2)
		var acc uint64
		for i := 0; i < probeIters; i++ {
			acc += uint64(c.Lookup(memory.Block(g.next() % (2 * blocks))))
		}
		probeSink += acc
	})
}

// probePageCache touches pages of a full S-COMA page cache over twice
// its capacity; hits move the frame to the front of the LRU list.
func probePageCache() float64 {
	frames := uint64(config.PageCacheBytes / config.PageBytes)
	c := cache.NewPageCacheSized(config.PageCacheBytes, int(2*frames))
	for p := uint64(0); p < frames; p++ {
		c.Allocate(memory.Page(p))
	}
	return nsPerIter(func() {
		g := lcg(3)
		var acc uint64
		for i := 0; i < probeIters; i++ {
			if e := c.Touch(memory.Page(g.next() % (2 * frames))); e != nil {
				acc++
			}
		}
		probeSink += acc
	})
}

// probeDispatch runs the replay loop's scheduler cycle — Peek the
// earliest CPU, advance its clock, Requeue — over the paper's 32 CPUs.
func probeDispatch() float64 {
	s := engine.NewScheduler(config.DefaultNodes * config.DefaultCPUsPerNode)
	return nsPerIter(func() {
		g := lcg(4)
		for i := 0; i < probeIters; i++ {
			c := s.Peek()
			c.Clock += int64(1 + g.next()%64)
			s.Requeue(c)
		}
		probeSink += uint64(s.MaxClock())
	})
}

// probeTraverse routes protocol-sized messages between random node
// pairs of the 8-node ring.
func probeTraverse() float64 {
	nodes := config.DefaultNodes
	f, err := interconnect.New(config.Network{Topology: config.TopoRing}, nodes, config.Default())
	if err != nil {
		panic(err) // a fixed, valid configuration
	}
	return nsPerIter(func() {
		g := lcg(5)
		var now, acc int64
		for i := 0; i < probeIters; i++ {
			r := g.next()
			acc += f.Traverse(int(r%uint64(nodes)), int((r>>8)%uint64(nodes)), 72, now)
			now += 10
		}
		probeSink += uint64(acc)
	})
}

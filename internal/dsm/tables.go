package dsm

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/directory"
)

// Tables is reusable storage for the largest tables of a Machine: the
// directory, the page records, the per-node L1-copy counts and
// miss-history flags, R-NUMA's refetch counters, every CPU's L1 and
// every node's finite or infinite block cache. A machine built on a
// set resizes each table to its own footprint and cluster and resets
// it to the state a freshly allocated table has, so what ran on the set
// before cannot change a run's statistics; the storage only grows.
//
// The caller owns the set. It serves one machine at a time, and that
// machine's state lives only until the set's next use; nothing a run
// returns (statistics, telemetry, the fabric snapshot) points into it.
// The zero Tables is empty and ready to use.
type Tables struct {
	dir   directory.Directory
	pages []page

	// l1count and flags are [node*numBlocks+block], ref is
	// [node*numPages+page]; the *Rows slices view them one node per row.
	l1count, flags        []uint8
	ref                   []int32
	l1countRows, flagRows [][]uint8
	refRows               [][]int32

	l1 []*cache.L1
	// bc are finite block caches of bcBytes each, inf the infinite ones.
	bc      []*cache.BlockCache
	bcBytes int
	inf     []*cache.BlockCache
}

// bind resizes and resets the tables for m, whose spec, cluster and
// footprint are set, and points m's tables at them.
func (tb *Tables) bind(m *Machine) {
	nodes, cpus := m.cl.Nodes, m.cl.TotalCPUs()
	nb, np := int(m.numBlocks), int(m.numPages)

	tb.dir.Reset(m.numBlocks, nodes)
	m.dir = &tb.dir
	tb.pages = zeroed(tb.pages, np)
	for i := range tb.pages {
		tb.pages[i].home = -1
	}
	m.pages = tb.pages

	tb.l1count = zeroed(tb.l1count, nodes*nb)
	tb.flags = zeroed(tb.flags, nodes*nb)
	tb.l1countRows = rows(tb.l1countRows, tb.l1count, nodes, nb)
	tb.flagRows = rows(tb.flagRows, tb.flags, nodes, nb)
	m.l1count, m.flags = tb.l1countRows, tb.flagRows
	if m.spec.RNUMA {
		tb.ref = zeroed(tb.ref, nodes*np)
		tb.refRows = rows(tb.refRows, tb.ref, nodes, np)
		m.ref = tb.refRows
	}

	for len(tb.l1) < cpus {
		tb.l1 = append(tb.l1, cache.NewL1(config.L1Bytes))
	}
	m.l1 = tb.l1[:cpus:cpus]
	for _, c := range m.l1 {
		c.Reset()
	}
	switch {
	case m.spec.InfiniteBlockCache:
		for len(tb.inf) < nodes {
			tb.inf = append(tb.inf, cache.NewInfiniteBlockCache())
		}
		m.bc = tb.inf[:nodes:nodes]
	case m.spec.BlockCacheBytes > 0:
		if tb.bcBytes != m.spec.BlockCacheBytes {
			tb.bc, tb.bcBytes = tb.bc[:0], m.spec.BlockCacheBytes
		}
		for len(tb.bc) < nodes {
			tb.bc = append(tb.bc, cache.NewBlockCache(tb.bcBytes, config.BlockCacheWays))
		}
		m.bc = tb.bc[:nodes:nodes]
	}
	for _, c := range m.bc {
		c.Reset(nb)
	}
}

// zeroed returns s resized to n entries, every one zero, on s's storage
// when it holds n.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// rows returns one n-entry row of flat per node, on rs's storage.
func rows[T any](rs [][]T, flat []T, nodes, n int) [][]T {
	rs = slices.Grow(rs[:0], nodes)
	for i := range nodes {
		rs = append(rs, flat[i*n:(i+1)*n:(i+1)*n])
	}
	return rs
}

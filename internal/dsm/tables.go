package dsm

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/directory"
	"repro/internal/interconnect"
)

// Tables is reusable storage for the largest tables of a Machine: the
// directory, the page records, the per-node block bytes (L1-copy count
// and miss-history flags), R-NUMA's refetch counters and page caches,
// every CPU's L1, every node's finite or infinite block cache, and the
// fabric graphs. Per block that is 9 bytes of directory entry plus one
// byte per node: 17 bytes on the paper's 8-node cluster. A machine
// built on a set resizes each table to its own footprint and cluster
// and resets it to the state a freshly allocated table has, so what ran
// on the set before cannot change a run's statistics; the storage only
// grows. A fabric graph is never written, so the set keeps one per
// topology and node count, and each machine's fabric routes over it
// and counts into a stats.NetStats of its own.
//
// The caller owns the set. It serves one machine at a time, and that
// machine's state lives only until the set's next use; nothing a run
// returns (statistics, the fabric's NetStats, telemetry) points into
// it. The zero Tables is empty and ready to use.
type Tables struct {
	dir   directory.Directory
	pages []page

	// nodeBlock is [node*numBlocks+block], ref is [node*numPages+page];
	// the *Rows slices view them one node per row.
	nodeBlock     []uint8
	ref           []int32
	nodeBlockRows [][]uint8
	refRows       [][]int32

	l1 []*cache.L1
	// bc are finite block caches of bcBytes each, inf the infinite ones.
	bc      []*cache.BlockCache
	bcBytes int
	inf     []*cache.BlockCache
	// pc are R-NUMA page caches of pcBytes each (0: unbounded).
	pc      []*cache.PageCache
	pcBytes int

	// topos are the fabric graphs built on the set, at most one per
	// topology and node count.
	topos []*interconnect.Topology
}

// topology returns the graph of net over the given node count, built
// on its first use.
func (tb *Tables) topology(net config.Network, nodes int) (*interconnect.Topology, error) {
	for _, t := range tb.topos {
		if t.Name == net.Kind() && t.Nodes == nodes {
			return t, nil
		}
	}
	t, err := interconnect.NewTopology(net, nodes)
	if err != nil {
		return nil, err
	}
	tb.topos = append(tb.topos, t)
	return t, nil
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

	tb.nodeBlock = zeroed(tb.nodeBlock, nodes*nb)
	tb.nodeBlockRows = rows(tb.nodeBlockRows, tb.nodeBlock, nodes, nb)
	m.nodeBlock = tb.nodeBlockRows
	if m.spec.RNUMA {
		tb.ref = zeroed(tb.ref, nodes*np)
		tb.refRows = rows(tb.refRows, tb.ref, nodes, np)
		m.ref = tb.refRows

		if tb.pcBytes != m.spec.PageCacheBytes {
			tb.pc, tb.pcBytes = tb.pc[:0], m.spec.PageCacheBytes
		}
		for len(tb.pc) < nodes {
			tb.pc = append(tb.pc, cache.NewPageCache(tb.pcBytes))
		}
		m.pc = tb.pc[:nodes:nodes]
		for _, c := range m.pc {
			c.Reset(np)
		}
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

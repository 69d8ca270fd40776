package dsm

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// relocate runs the R-NUMA relocation interrupt for node n on page p
// after rnumaMiss decided to relocate it. Relocation is a purely
// local operation: flush the node's cached copies of the page, unmap
// it, allocate a frame in the S-COMA page cache (evicting the LRU
// frame if full), and remap; the necessary blocks are
// refetched on demand.
func (m *Machine) relocate(c *engine.CPU, n int, p memory.Page) {
	pg := &m.pages[p]
	if pg.home == n || pg.replica(n) {
		return
	}
	pc := m.pc[n]
	op := m.beginPageOp(c, n)

	// Make room: deallocate the LRU frame.
	if pc.Full() {
		m.evictFrame(op, n)
	}

	// Flush our CC-NUMA cached copies of the page; they will be
	// refetched into the frame on demand. Dirty copies travel home at
	// the operation's current event time (after any victim flush).
	flushed := 0
	b0 := p.FirstBlock()
	for i := 0; i < config.BlocksPerPage; i++ {
		b := b0 + memory.Block(i)
		present, dirty := m.invalidateOnNode(n, b, false)
		if present {
			flushed++
			if dirty {
				m.writebackRemote(n, pg.home, b, op.now)
			} else {
				m.dir.DropSharer(b, n)
			}
		}
	}
	op.charge(m.tm.PageOpCost(flushed))

	pc.Allocate(p)
	m.ref[n][p] = 0
	op.count(stats.Relocation)
	op.note(telemetry.EvRelocate, p)
	op.finish()
}

// mapSCOMA statically places a just-faulted remote page into node n's
// page cache (the AlwaysSCOMA policy): allocate a frame, evicting the
// LRU page if the cache is full, and map the page in S-COMA mode. The
// caller has already charged the soft fault; this adds the allocation
// and any replacement cost.
func (m *Machine) mapSCOMA(c *engine.CPU, n int, p memory.Page) {
	pc := m.pc[n]
	if pc.Entry(p) != nil {
		return
	}
	op := m.beginPageOp(c, n)
	if pc.Full() {
		m.evictFrame(op, n)
	}
	pc.Allocate(p)
	m.pages[p].replicas &^= 1 << uint(n) // the frame supersedes a replica the fault copied
	op.count(stats.Relocation)
	op.note(telemetry.EvRelocate, p)
	op.finish()
}

// evictFrame deallocates node n's least recently used page frame: the
// frame's surviving blocks are flushed home at the operation's current
// event time, the victim page drops back to CC-NUMA mode (losing any
// replica the node was granted while holding the frame), its refetch
// counter restarts, and the node's mapping is cleared so the next touch
// re-faults. Both eviction paths (reactive relocation and static S-COMA
// placement) share this helper, so they cannot diverge on the mapping
// state again.
func (m *Machine) evictFrame(op *pageOp, n int) {
	victim := m.pc[n].EvictLRU()
	flushed := m.flushFrame(op, n, victim)
	op.charge(m.tm.PageOpCost(flushed))
	pg := &m.pages[victim.Page]
	pg.replicas &^= 1 << uint(n)
	pg.mapped &^= 1 << uint(n) // the remapped page faults on next touch
	m.ref[n][victim.Page] = 0
	op.count(stats.Replacement)
	op.note(telemetry.EvFrameFlush, victim.Page)
}

// flushFrame writes a deallocated S-COMA frame's dirty blocks back to
// the home node at the operation's current event time and purges the
// node's L1 copies of the page (the local physical mapping is going
// away). It returns the number of valid blocks flushed.
func (m *Machine) flushFrame(op *pageOp, n int, fr *cache.PageEntry) (flushed int) {
	p := fr.Page
	h := m.pages[p].home
	b0 := p.FirstBlock()
	for i := 0; i < config.BlocksPerPage; i++ {
		bit := uint64(1) << uint(i)
		if fr.Valid&bit == 0 {
			continue
		}
		b := b0 + memory.Block(i)
		flushed++
		// Inclusion of the frame over the L1s: purge processor copies.
		_, dirty := m.purgeL1s(n, b, -1)
		if fr.Dirty&bit != 0 || dirty {
			m.writebackRemote(n, h, b, op.now)
		} else {
			m.dir.DropSharer(b, n)
		}
		m.nodeBlock[n][b] &^= flagDepartInval // capacity departure
	}
	fr.Valid, fr.Dirty = 0, 0
	return flushed
}

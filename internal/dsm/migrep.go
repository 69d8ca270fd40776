package dsm

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// cleanPage writes every dirty cached block of page p back to home at
// the operation's current event time, downgrading the owners to Shared.
// It returns the number of blocks flushed, which sizes the gather cost.
func (m *Machine) cleanPage(op *pageOp, p memory.Page) (flushed int) {
	h := m.pages[p].home
	b0 := p.FirstBlock()
	for i := 0; i < config.BlocksPerPage; i++ {
		b := b0 + memory.Block(i)
		de := m.dir.Entry(b)
		if de.State != directory.ModifiedState {
			continue
		}
		owner := int(de.Owner)
		if m.downgradeOnNode(owner, b) {
			flushed++
			op.xfer(owner, h, owner, msgBlockBytes)
		}
		m.dir.WriteBack(b, owner)
		m.dir.AddSharer(b, owner)
	}
	return flushed
}

// gatherPage invalidates every cached copy of page p cluster-wide at
// the operation's current event time, flushing dirty blocks home, and
// removes any S-COMA frames holding the page. A node whose frame goes
// also loses any replica it was granted while holding the frame. It
// returns the number of block copies flushed.
func (m *Machine) gatherPage(op *pageOp, p memory.Page) (flushed int) {
	pg := &m.pages[p]
	h := pg.home
	b0 := p.FirstBlock()
	for i := 0; i < config.BlocksPerPage; i++ {
		b := b0 + memory.Block(i)
		held := m.dir.InvalidateAll(b)
		for s := 0; s < m.cl.Nodes; s++ {
			if held&(1<<uint(s)) == 0 {
				continue
			}
			present, dirty := m.invalidateOnNode(s, b, true)
			if present {
				flushed++
			}
			if dirty {
				op.xfer(s, h, s, msgBlockBytes)
			}
		}
	}
	if m.pc != nil {
		for s := 0; s < m.cl.Nodes; s++ {
			if m.pc[s].Remove(p) != nil {
				pg.replicas &^= 1 << uint(s)
			}
		}
	}
	return flushed
}

// replicate creates the first read-only replica of page p at node n: the
// home gathers dirty blocks, marks the page replicated, and copies it
// into n's local memory once the gather has completed.
func (m *Machine) replicate(c *engine.CPU, n int, p memory.Page) {
	pg := &m.pages[p]
	op := m.beginPageOp(c, n)
	flushed := m.cleanPage(op, p)
	op.charge(m.tm.GatherCost(flushed))
	op.xfer(pg.home, n, n, int64(config.BlocksPerPage)*msgBlockBytes)
	op.charge(m.tm.CopyCost(config.BlocksPerPage))
	pg.replicated = true
	pg.replicas |= 1 << uint(n)
	op.count(stats.Replication)
	op.note(telemetry.EvReplicate, p)
	m.home[pg.home].Acquire(m.acquireAt(op.start), op.elapsed()/4)
	op.finishBusy(p)
}

// grantReplica copies an already-replicated page into node n's local
// memory (a mapped node crossed the read threshold). Like replicate,
// the copy keeps the page busy — concurrent accessors wait it out — and
// occupies the home controller that serves it.
func (m *Machine) grantReplica(c *engine.CPU, n int, p memory.Page) {
	pg := &m.pages[p]
	op := m.beginPageOp(c, n)
	op.charge(m.tm.SoftTrap)
	op.xfer(pg.home, n, n, int64(config.BlocksPerPage)*msgBlockBytes)
	op.charge(m.tm.CopyCost(config.BlocksPerPage))
	pg.replicas |= 1 << uint(n)
	op.count(stats.Replication)
	op.note(telemetry.EvGrant, p)
	m.home[pg.home].Acquire(m.acquireAt(op.start), op.elapsed()/4)
	op.finishBusy(p)
}

// collapse handles a write protection fault on a replicated page: the
// writer traps, the home locks the page mapper, gathers and invalidates
// all replicas and cached copies, and switches the page back to a single
// read-write copy at home.
func (m *Machine) collapse(c *engine.CPU, n int, p memory.Page) {
	pg := &m.pages[p]
	// Wait for any page operation already in flight.
	m.waitPageBusy(c, n, p)
	if !pg.replicated {
		return // another writer collapsed it while we waited
	}
	op := m.beginPageOp(c, n)
	op.charge(m.tm.SoftTrap) // the writer traps before the home acts
	flushed := m.gatherPage(op, p)
	op.charge(m.tm.GatherCost(flushed))
	replicas := bits.OnesCount64(pg.replicas)
	for mask := pg.replicas; mask != 0; mask &= mask - 1 {
		s := bits.TrailingZeros64(mask)
		if s == n {
			pg.mapped |= 1 << uint(s) // the writer remaps immediately
		} else {
			pg.mapped &^= 1 << uint(s) // replica mapping dropped; re-fault
		}
		// Replica invalidation and ack between home and holder,
		// charged to the writer that forced the collapse.
		op.xfer(pg.home, s, n, msgHeaderBytes)
		op.xfer(s, pg.home, n, msgHeaderBytes)
	}
	pg.replicas = 0
	pg.replicated = false
	// The write proves the page is not read-only: zero its counters and
	// block re-replication until the next reset interval.
	cnt := m.migCounter(p)
	cnt.reset()
	cnt.noRepl = true
	op.charge(int64(replicas) * m.tm.TLBShootdown)
	op.count(stats.Collapse)
	op.note(telemetry.EvCollapse, p)
	op.finishBusy(p)
}

// migrate moves page p's home to node n: all cached copies are gathered,
// every node's mapping is shot down lazily (dropped, so the node's next
// touch faults), and the page data moves to the new home once the
// gather completes.
func (m *Machine) migrate(c *engine.CPU, n int, p memory.Page) {
	pg := &m.pages[p]
	oldHome := pg.home
	op := m.beginPageOp(c, n)
	flushed := m.gatherPage(op, p)
	op.charge(m.tm.GatherCost(flushed))
	pg.home = n
	pg.mapped = 1 << uint(n) // every other mapping is shot down

	op.xfer(oldHome, n, n, int64(config.BlocksPerPage)*msgBlockBytes)
	op.charge(m.tm.CopyCost(config.BlocksPerPage))
	op.count(stats.Migration)
	op.note(telemetry.EvMigrate, p) // Home already moved: notes the new home
	m.home[oldHome].Acquire(m.acquireAt(op.start), op.elapsed()/4)
	op.finishBusy(p)
	m.migCounter(p).reset()
}

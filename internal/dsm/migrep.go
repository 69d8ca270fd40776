package dsm

import (
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
	h := m.pt.Entry(p).Home
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
// removes any S-COMA frames holding the page. It returns the number of
// block copies flushed.
func (m *Machine) gatherPage(op *pageOp, p memory.Page) (flushed int) {
	h := m.pt.Entry(p).Home
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
				m.pt.Entry(p).Mode[s] = memory.ModeCCNUMA
			}
		}
	}
	return flushed
}

// replicate creates the first read-only replica of page p at node n: the
// home gathers dirty blocks, marks the page replicated, and copies it
// into n's local memory once the gather has completed.
func (m *Machine) replicate(c *engine.CPU, n int, p memory.Page) {
	e := m.pt.Entry(p)
	op := m.beginPageOp(c, n)
	flushed := m.cleanPage(op, p)
	op.charge(m.tm.GatherCost(flushed))
	op.xfer(e.Home, n, n, int64(config.BlocksPerPage)*msgBlockBytes)
	op.charge(m.tm.CopyCost(config.BlocksPerPage))
	e.Replicated = true
	e.Mode[n] = memory.ModeReplica
	op.count(stats.Replication)
	op.note(telemetry.EvReplicate, p)
	m.home[e.Home].Acquire(op.start, op.elapsed()/4)
	op.finishBusy(p)
}

// grantReplica copies an already-replicated page into node n's local
// memory (a mapped node crossed the read threshold). Like replicate,
// the copy keeps the page busy — concurrent accessors wait it out — and
// occupies the home controller that serves it.
func (m *Machine) grantReplica(c *engine.CPU, n int, p memory.Page) {
	e := m.pt.Entry(p)
	op := m.beginPageOp(c, n)
	op.charge(m.tm.SoftTrap)
	op.xfer(e.Home, n, n, int64(config.BlocksPerPage)*msgBlockBytes)
	op.charge(m.tm.CopyCost(config.BlocksPerPage))
	e.Mode[n] = memory.ModeReplica
	op.count(stats.Replication)
	op.note(telemetry.EvGrant, p)
	m.home[e.Home].Acquire(op.start, op.elapsed()/4)
	op.finishBusy(p)
}

// collapse handles a write protection fault on a replicated page: the
// writer traps, the home locks the page mapper, gathers and invalidates
// all replicas and cached copies, and switches the page back to a single
// read-write copy at home.
func (m *Machine) collapse(c *engine.CPU, n int, p memory.Page) {
	e := m.pt.Entry(p)
	// Wait for any page operation already in flight.
	m.waitPageBusy(c, n, p)
	if !e.Replicated {
		return // another writer collapsed it while we waited
	}
	op := m.beginPageOp(c, n)
	op.charge(m.tm.SoftTrap) // the writer traps before the home acts
	flushed := m.gatherPage(op, p)
	op.charge(m.tm.GatherCost(flushed))
	replicas := 0
	for s := 0; s < m.cl.Nodes; s++ {
		if e.Mode[s] == memory.ModeReplica {
			replicas++
			e.Mode[s] = memory.ModeCCNUMA
			m.mapped[s][p] = false // replica mapping dropped; re-fault
			if s == n {
				m.mapped[s][p] = true // the writer remaps immediately
			}
			// Replica invalidation and ack between home and holder,
			// charged to the writer that forced the collapse.
			op.xfer(e.Home, s, n, msgHeaderBytes)
			op.xfer(s, e.Home, n, msgHeaderBytes)
		}
	}
	e.Replicated = false
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
	e := m.pt.Entry(p)
	oldHome := e.Home
	op := m.beginPageOp(c, n)
	flushed := m.gatherPage(op, p)
	op.charge(m.tm.GatherCost(flushed))
	for s := 0; s < m.cl.Nodes; s++ {
		m.mapped[s][p] = false
	}
	m.pt.SetHome(p, n)
	m.mapped[n][p] = true

	op.xfer(oldHome, n, n, int64(config.BlocksPerPage)*msgBlockBytes)
	op.charge(m.tm.CopyCost(config.BlocksPerPage))
	op.count(stats.Migration)
	op.note(telemetry.EvMigrate, p) // Home already moved: notes the new home
	m.home[oldHome].Acquire(op.start, op.elapsed()/4)
	op.finishBusy(p)
	m.migCounter(p).reset()
}

package dsm

import (
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// pageOp is one in-flight page operation: a soft page fault (with or
// without a replica copy), an R-NUMA relocation, a migration, a
// replication or replica grant, a collapse, or a page-cache replacement
// riding on one of those. It carries the operation's explicit event
// time and accumulates its cost, so that every protocol message the
// operation emits enters the fabric at the simulated instant it
// actually happens — never in the simulated past — and so that cost,
// traffic and page-busy accounting cannot drift apart. Its bytes are
// charged through Machine.traffic like every other message's, and
// count is the only place a page operation is counted.
type pageOp struct {
	m     *Machine
	c     *engine.CPU
	node  int   // node the operation is accounted to
	start int64 // event time the operation began (c.Clock at begin)
	now   int64 // current event time within the operation
}

// beginPageOp opens a page operation for CPU c on node, anchored at the
// CPU's current clock. The caller must have waited out any page-busy
// horizon first (access does this for every trace op). Page operations
// run to completion before the next one can begin, so the machine hands
// out one reusable scratch carrier instead of allocating per operation;
// the returned pageOp is valid until the next beginPageOp.
//
//repro:hotpath
func (m *Machine) beginPageOp(c *engine.CPU, node int) *pageOp {
	op := &m.opScratch
	op.m, op.c, op.node, op.start, op.now = m, c, node, c.Clock, c.Clock
	return op
}

// charge advances the operation's event time by cost cycles of page
// operation work.
//
//repro:hotpath
func (op *pageOp) charge(cost int64) { op.now += cost }

// elapsed returns the cycles the operation has consumed so far.
//
//repro:hotpath
func (op *pageOp) elapsed() int64 { return op.now - op.start }

// xfer injects one message of the operation from src to dst at the
// operation's current event time, charging its bytes to pay's traffic
// counter (page copies are charged to the requester that waits on them,
// gathered flushes to the cacher that emits them).
//
//repro:hotpath
func (op *pageOp) xfer(src, dst, pay int, bytes int64) {
	op.m.traffic(pay, bytes, op.now)
	op.m.fabric.Deliver(src, dst, bytes, op.m.injectAt(op.now))
}

// count records one page operation of the given kind against the
// operation's node (and, under telemetry, the window of the operation's
// current event time).
//
//repro:hotpath
func (op *pageOp) count(kind stats.PageOp) {
	op.m.st.Nodes[op.node].PageOps[kind]++
	op.m.tel.PageOp(kind, op.now)
}

// note records the operation on the telemetry timeline as kind acting
// on page p, spanning the operation's start to its current event time.
// Call it after the operation's last charge, so the span covers the
// whole operation; a sub-operation (a frame flush inside a relocation)
// notes its own completed span mid-operation instead.
//
//repro:hotpath
func (op *pageOp) note(kind telemetry.EventKind, p memory.Page) {
	op.m.tel.Event(kind, uint64(p), op.m.pages[p].home, op.node, op.start, op.now)
}

// finish commits the operation: its elapsed cycles are accounted as
// page-operation time and the initiating CPU's clock advances to the
// operation's end.
//
//repro:hotpath
func (op *pageOp) finish() {
	op.m.st.Nodes[op.node].PageOpCycles += op.elapsed()
	op.c.Clock = op.now
}

// finishBusy is finish for operations that serialize subsequent
// accessors: the page stays busy until the operation's end.
//
//repro:hotpath
func (op *pageOp) finishBusy(p memory.Page) {
	op.finish()
	op.m.setPageBusy(p, op.now)
}

// softFault maps page p at node n after a soft page fault: the CPU
// traps, its request crosses to the home's page mapper and the reply
// crosses back. On a replicated page (under replication) the home also
// sends a full read-only copy when the request arrives, and the node
// maps it as a local replica once the copy is in.
//
//repro:hotpath
func (m *Machine) softFault(c *engine.CPU, n int, p memory.Page) {
	pg := &m.pages[p]
	op := m.beginPageOp(c, n)
	op.charge(m.tm.SoftTrap)
	op.now = m.fabric.Traverse(n, pg.home, msgHeaderBytes, m.injectAt(op.now))
	copied := pg.replicated && m.spec.Replication
	if copied {
		op.xfer(pg.home, n, n, int64(config.BlocksPerPage)*msgBlockBytes)
		op.count(stats.Replication)
		pg.replicas |= 1 << uint(n)
	}
	op.now = m.fabric.Traverse(pg.home, n, msgHeaderBytes, m.injectAt(op.now))
	m.traffic(n, 2*msgHeaderBytes, op.now) // request + reply
	if copied {
		op.charge(m.tm.CopyCost(config.BlocksPerPage))
		op.note(telemetry.EvFaultCopy, p)
	}
	op.finish()
}

// writebackRemote sends a dirty block home asynchronously at the given
// event time: the CPU does not wait, but the NIs, the fabric links and
// the home controller are occupied and the directory is updated. now
// must be the emitting transaction's current event time — block
// evictions pass the CPU clock, page operations their pageOp's time.
//
//repro:hotpath
func (m *Machine) writebackRemote(n, h int, b memory.Block, now int64) {
	t := m.ni[n].Acquire(m.acquireAt(now), m.tm.NIOccupancy)
	t = m.fabric.Traverse(n, h, msgBlockBytes, m.injectAt(t))
	m.home[h].Acquire(m.acquireAt(t), m.tm.HomeOccupancy)
	m.dir.WriteBack(b, n)
	m.traffic(n, msgBlockBytes, now)
}

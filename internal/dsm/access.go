package dsm

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/stats"
)

// localAccess models an L1 miss satisfied on the node: a bus transaction
// (with queuing) followed by the fixed local-memory/SRAM service time. It
// returns the completion time.
//
//repro:hotpath
func (m *Machine) localAccess(now int64, n int) int64 {
	t := m.bus[n].Acquire(m.acquireAt(now), m.tm.BusOccupancy)
	return t + m.localFixed
}

// forwardExtra returns the distance-dependent latency of a forwarded
// request leg a->b and its return b->a beyond the flat DirtyRemoteExtra
// the timing model charges; zero on the crossbar.
//
//repro:hotpath
func (m *Machine) forwardExtra(a, b int) int64 {
	return m.fabric.ExtraHopLatency(a, b) + m.fabric.ExtraHopLatency(b, a)
}

// wireLatency returns the full fabric latency of one a->b traversal
// (one hop on the crossbar, matching the flat model's NetworkLatency).
// It is used to back-date events on the far side of a completed round
// trip, e.g. when the dirty owner's NI was busy.
//
//repro:hotpath
func (m *Machine) wireLatency(a, b int) int64 {
	if a == b {
		return 0
	}
	return m.fabric.HopLatency() + m.fabric.ExtraHopLatency(a, b)
}

// ackWaveLatency returns the latency the invalidation ack wave adds to
// a directory round trip: the flat one-hop charge of the original
// model, plus the farthest sharer's extra hops on multi-hop fabrics.
//
//repro:hotpath
func (m *Machine) ackWaveLatency(h int, mask uint64) int64 {
	return m.fabric.HopLatency() + m.ackWaveExtra(h, mask)
}

// ackWaveExtra returns the additional latency of an invalidation ack
// wave on multi-hop fabrics: the wave completes when the ack of the
// farthest sharer in mask returns to home h. Zero on the crossbar,
// where the flat one-network-latency charge already covers the wave.
//
//repro:hotpath
func (m *Machine) ackWaveExtra(h int, mask uint64) int64 {
	var max int64
	for ; mask != 0; mask &= mask - 1 {
		s := bits.TrailingZeros64(mask)
		if x := m.forwardExtra(h, s); x > max {
			max = x
		}
	}
	return max
}

// roundTrip models a protocol round trip from node n to home h: local
// bus, outbound NI, fabric traversal, home controller (plus extra cycles
// for 3-hop forwarding or invalidation gathering), fabric traversal
// back, inbound NI, and the fill delivery on the local bus. The request
// and response sizes are charged to the links of the two traversals.
// When h == n the network legs vanish but the directory/controller work
// remains, and any message bytes are accounted as node-local.
//
//repro:hotpath
func (m *Machine) roundTrip(now int64, n, h int, extra, reqBytes, respBytes int64) int64 {
	t := m.bus[n].Acquire(m.acquireAt(now), m.tm.BusOccupancy)
	if h != n {
		t = m.ni[n].Acquire(m.acquireAt(t), m.tm.NIOccupancy)
		t = m.fabric.Traverse(n, h, reqBytes, m.injectAt(t))
	} else if reqBytes+respBytes > 0 {
		m.fabric.Deliver(n, n, reqBytes+respBytes, m.injectAt(t))
	}
	t = m.home[h].Acquire(m.acquireAt(t), m.tm.HomeOccupancy)
	t += m.remoteFixed + extra
	if h != n {
		t = m.fabric.Traverse(h, n, respBytes, m.injectAt(t))
		t = m.ni[n].Acquire(m.acquireAt(t), m.tm.NIOccupancy)
	}
	t = m.bus[n].Acquire(m.acquireAt(t), m.tm.BusOccupancy)
	return t
}

// access executes one Read/Write trace op for CPU c, advancing its clock
// by the full memory-system latency.
//
//repro:hotpath
func (m *Machine) access(c *engine.CPU, b memory.Block, write bool) {
	n := m.nodeOf(c.ID)
	p := b.Page()
	pg := &m.pages[p]
	ns := &m.st.Nodes[n]

	// First-touch placement. Before the parallel phase, pages are homed
	// at the first toucher (the initializing processor); the user-level
	// directive at the start of the parallel phase re-homes each page to
	// its first post-phase toucher, for free, as the paper's policy
	// does.
	if pg.home < 0 {
		pg.home = n
		pg.mapped |= 1 << uint(n)
		pg.placed = m.phaseDone
	} else if m.phaseDone && !pg.placed {
		pg.placed = true
		if pg.home != n && !pg.replicated {
			pg.home = n
			pg.mapped |= 1 << uint(n)
		}
	}

	// Wait out any page operation in flight on this page.
	m.waitPageBusy(c, n, p)

	// Soft page fault: first access by this node, or a mapping dropped
	// by a migration, collapse or frame eviction (lazy TLB invalidation:
	// the stale mapping faults on its next touch).
	if pg.home != n && pg.mapped&(1<<uint(n)) == 0 {
		pg.mapped |= 1 << uint(n)
		ns.PageFaults++
		m.softFault(c, n, p)
		// Static S-COMA placement: the page maps straight into the
		// page cache; its blocks fetch on demand.
		if m.spec.AlwaysSCOMA {
			m.mapSCOMA(c, n, p)
		}
	}

	// A write to a replicated page takes a protection fault and forces
	// the home to collapse all replicas back to one read-write page.
	if write && pg.replicated {
		m.collapse(c, n, p)
	}

	l1 := m.l1[c.ID]
	switch l1.Lookup(b) {
	case cache.Modified:
		return // hit with write permission
	case cache.Shared:
		if !write {
			return // read hit
		}
		m.upgrade(c, n, b)
	default:
		m.fill(c, n, b, write)
	}
}

// upgrade obtains write permission for a block the CPU already caches in
// the Shared state.
//
//repro:hotpath
func (m *Machine) upgrade(c *engine.CPU, n int, b memory.Block) {
	ns := &m.st.Nodes[n]
	p := b.Page()
	h := m.pages[p].home

	remote := m.dir.Sharers(b) &^ (1 << uint(n))
	if remote != 0 {
		m.remoteUpgrade(c, n, h, b, remote)
	} else if m.copies(n, b) > 1 {
		// Node-local upgrade: one bus transaction invalidates siblings.
		m.advance(c, ns, m.bus[n].Acquire(m.acquireAt(c.Clock), m.tm.BusOccupancy))
	}
	// Invalidate sibling L1 copies on this node (the upgrading CPU's own
	// copy accounts for one of the node's counted copies).
	if m.copies(n, b) > 1 {
		m.purgeL1s(n, b, c.ID)
	}
	m.dir.SetOwner(b, n)
	m.l1[c.ID].SetState(b, cache.Modified)
	if m.bc != nil && h != n {
		m.bc[n].SetState(b, cache.Modified)
	}
	if m.pc != nil && h != n {
		if pe := m.pc[n].Entry(p); pe != nil && pe.Valid&(1<<uint(b.Index())) != 0 {
			pe.Dirty |= 1 << uint(b.Index())
		}
	}
	// The decision runs after the upgrade's state changes: a page
	// operation it triggers may gather this very page, including the
	// copy just upgraded.
	if remote != 0 {
		m.onRemoteUpgrade(c, n, p)
	}
}

// remoteUpgrade obtains exclusivity of block b for node n, whose data
// is already local, through home h's directory: the invalidations to
// the sharers in remote overlap, and one ack wave adds a network
// latency (plus the farthest sharer's extra hops on multi-hop fabrics).
//
//repro:hotpath
func (m *Machine) remoteUpgrade(c *engine.CPU, n, h int, b memory.Block, remote uint64) {
	ns := &m.st.Nodes[n]
	end := m.roundTrip(c.Clock, n, h, m.ackWaveLatency(h, remote),
		msgHeaderBytes, msgHeaderBytes)
	ns.Upgrades++
	m.traffic(n, 2*msgHeaderBytes, end)
	m.invalidateSharers(n, h, b, remote, end)
	m.advance(c, ns, end)
}

// invalidateSharers delivers invalidations for block b from home h to
// every node in mask (except requester n), charging their NIs at time t
// and accounting traffic to the requester. The invalidation and ack ride
// the h<->s links; dirty data accompanies the ack back to home memory.
//
//repro:hotpath
func (m *Machine) invalidateSharers(n, h int, b memory.Block, mask uint64, t int64) {
	for mask &^= 1 << uint(n); mask != 0; mask &= mask - 1 {
		s := bits.TrailingZeros64(mask)
		m.ni[s].Acquire(m.acquireAt(t), m.tm.NIOccupancy)
		present, dirty := m.invalidateOnNode(s, b, true)
		m.fabric.Deliver(h, s, msgHeaderBytes, m.injectAt(t))
		ackBytes := int64(msgHeaderBytes)
		if present && dirty {
			ackBytes = msgBlockBytes
		}
		m.traffic(n, msgHeaderBytes+ackBytes, t) // inval + ack
		// The ack leaves after the invalidation has crossed to s.
		m.fabric.Deliver(s, h, ackBytes, m.injectAt(t+m.wireLatency(h, s)))
	}
}

// fill services an L1 miss for CPU c on node n. When a copy on the node
// serves it, the miss completes locally: one bus transaction and the
// local service time, with no network traffic.
//
//repro:hotpath
func (m *Machine) fill(c *engine.CPU, n int, b memory.Block, write bool) {
	cls := m.classify(n, b)
	if m.fetch(c, n, b, cls, write) {
		end := m.localAccess(c.Clock, n)
		m.miss(n, cls, false, end)
		m.advance(c, &m.st.Nodes[n], end)
	}
	m.completeFill(c, n, b, write)
}

// fetch finds the source of a miss of class cls on block b for CPU c on
// node n. It reports true when a copy on the node can serve the miss,
// leaving the local access to fill; otherwise it runs the protocol
// transaction that brings the data or exclusivity, charging its
// latency, traffic and miss, and any page operation it triggers.
//
//repro:hotpath
func (m *Machine) fetch(c *engine.CPU, n int, b memory.Block, cls stats.MissClass, write bool) (local bool) {
	p := b.Page()
	pg := &m.pages[p]
	h := pg.home
	ns := &m.st.Nodes[n]
	start := c.Clock

	remote := m.dir.Sharers(b) &^ (1 << uint(n))
	// A write fill can complete locally only if no other node holds a
	// copy; otherwise exclusivity must come from the home.
	localOK := !write || remote == 0

	// 1. Another L1 on this node holds the block.
	if m.copies(n, b) > 0 && localOK {
		return true
	}

	// 2. The S-COMA page cache holds the block.
	if m.pc != nil && localOK && h != n {
		if pe := m.pc[n].Touch(p); pe != nil && pe.Valid&(1<<uint(b.Index())) != 0 {
			ns.PageCacheHits++
			if write {
				pe.Dirty |= 1 << uint(b.Index())
			}
			return true
		}
	}

	// 3. The page is homed here. The home's own misses feed the page's
	// home-use counter (the memory controller observes them), so
	// migration can weigh the home's use against a remote requester's;
	// they never count as remote read/write sharing.
	if h == n {
		if m.spec.MigRep() {
			m.pokeMigRep(c, n, p, write)
		}
		if owner, dirty := m.dir.IsDirtyRemote(b, n); dirty {
			// 3-hop fetch from the remote owner: the forward request
			// travels home->owner, the data and ack return owner->home.
			end := m.roundTrip(start, n, h, m.tm.DirtyRemoteExtra+m.forwardExtra(n, owner), 0, 0)
			back := end - m.wireLatency(owner, n)
			m.ni[owner].Acquire(m.acquireAt(back), m.tm.NIOccupancy)
			// The forward leaves once the home has seen the request.
			m.fabric.Deliver(h, owner, msgHeaderBytes, m.injectAt(back-m.wireLatency(h, owner)))
			m.fabric.Deliver(owner, h, msgHeaderBytes+msgBlockBytes, m.injectAt(back))
			m.miss(n, cls, true, end)
			m.traffic(n, 2*msgHeaderBytes+msgBlockBytes, end)
			m.retrieveDirty(n, owner, b, write)
			m.advance(c, ns, end)
			return false
		}
		if localOK {
			return true
		}
		// A write to a home block shared remotely: invalidation round;
		// data comes from local memory on the same transaction.
		end := m.roundTrip(start, n, h, m.ackWaveLatency(h, remote), 0, 0)
		ns.Upgrades++
		m.miss(n, cls, false, end)
		m.invalidateSharers(n, h, b, remote, end)
		m.advance(c, ns, end)
		return false
	}

	// 4. A local read-only replica serves reads from local memory.
	if !write && pg.replica(n) {
		return true
	}

	// 5. The block cache.
	if m.bc != nil {
		st := m.bc[n].Lookup(b)
		if st == cache.Modified || (st == cache.Shared && localOK) {
			ns.BlockCacheHits++
			return true
		}
		if st == cache.Shared {
			// Data is local but exclusivity is not: remote upgrade.
			ns.BlockCacheHits++
			m.remoteUpgrade(c, n, h, b, remote)
			m.onRemoteUpgrade(c, n, p)
			return false
		}
	}

	// 6. Remote fetch from the home.
	extra := int64(0)
	owner, dirty := m.dir.IsDirtyRemote(b, n)
	if dirty && owner != h {
		// 3-hop: the home forwards the request to the dirty owner.
		extra += m.tm.DirtyRemoteExtra + m.forwardExtra(h, owner)
	}
	if write && remote != 0 {
		extra += m.ackWaveLatency(h, remote) // inval ack wave
	}
	end := m.roundTrip(start, n, h, extra, msgHeaderBytes, msgBlockBytes)
	bytes := int64(msgHeaderBytes + msgBlockBytes)
	if dirty {
		if owner != h {
			back := end - m.wireLatency(owner, h)
			m.ni[owner].Acquire(m.acquireAt(back), m.tm.NIOccupancy)
			// The forward leaves once the home has seen the request.
			m.fabric.Deliver(h, owner, msgHeaderBytes, m.injectAt(back-m.wireLatency(h, owner)))
			m.fabric.Deliver(owner, h, msgHeaderBytes, m.injectAt(back))
			bytes += 2 * msgHeaderBytes // forward + ack
		}
		m.retrieveDirty(n, owner, b, write)
	}
	m.miss(n, cls, true, end)
	m.traffic(n, bytes, end)
	pg.misses++
	if write && remote != 0 {
		m.invalidateSharers(n, h, b, remote, end)
	}
	m.advance(c, ns, end)

	// Home-side migration/replication counters and cacher-side R-NUMA
	// refetch counters. Page operations they trigger run after the fill
	// completes and are charged to this CPU.
	m.onRemoteMiss(c, n, p, cls, write)
	return false
}

// advance moves the CPU clock to end, accounting the stall.
//
//repro:hotpath
func (m *Machine) advance(c *engine.CPU, ns *stats.Node, end int64) {
	if end > c.Clock {
		ns.StallCycles += end - c.Clock
		c.Clock = end
	}
}

// retrieveDirty pulls the dirty copy of b away from owner: on a read the
// owner downgrades to Shared and memory is updated; on a write the
// owner's copies are invalidated.
//
//repro:hotpath
func (m *Machine) retrieveDirty(n, owner int, b memory.Block, write bool) {
	if write {
		m.invalidateOnNode(owner, b, true)
	} else {
		m.downgradeOnNode(owner, b)
		m.dir.WriteBack(b, owner)
		m.dir.AddSharer(b, owner)
	}
}

// completeFill performs the directory update and cache installation
// common to every fill path.
//
//repro:hotpath
func (m *Machine) completeFill(c *engine.CPU, n int, b memory.Block, write bool) {
	if write {
		inv := m.dir.SetOwner(b, n)
		for mask := inv &^ (1 << uint(n)); mask != 0; mask &= mask - 1 {
			m.invalidateOnNode(bits.TrailingZeros64(mask), b, true)
		}
		// Intra-node: sibling L1s lose their copies (the filling CPU does
		// not hold the block yet, so any counted copy is a sibling's).
		m.purgeL1s(n, b, c.ID)
	} else {
		// An intra-node read of a block this node owns dirty must not
		// downgrade the directory: the data is still dirty on the node
		// (the sibling cache supplies it MOESI-style).
		if !m.dir.ModifiedBy(b, n) {
			m.dir.AddSharer(b, n)
		}
	}
	m.install(c, n, b, write)
}

// install places the block into the CPU's L1 (and the node's block cache
// or S-COMA frame when applicable), handling displaced victims.
//
//repro:hotpath
func (m *Machine) install(c *engine.CPU, n int, b memory.Block, write bool) {
	st := cache.Shared
	if write {
		st = cache.Modified
	}
	p := b.Page()
	pg := &m.pages[p]
	now := c.Clock

	// S-COMA frame: record block presence.
	if m.pc != nil && pg.home != n {
		if pe := m.pc[n].Entry(p); pe != nil {
			bit := uint64(1) << uint(b.Index())
			pe.Valid |= bit
			if write {
				pe.Dirty |= bit
			}
		}
	}

	// Block cache: remote pages only, maintaining inclusion.
	if m.bc != nil && pg.home != n && !pg.replica(n) {
		v := m.bc[n].Insert(b, st)
		if v.Valid {
			m.evictFromBlockCache(n, v, now)
		}
	}

	v := m.l1[c.ID].Insert(b, st)
	m.nodeBlock[n][b]++ // the count is the low bits
	m.markCached(n, b)
	if v.Valid {
		m.evictFromL1(n, v, now)
	}
}

// evictFromL1 handles a victim displaced from a processor cache.
//
//repro:hotpath
func (m *Machine) evictFromL1(n int, v cache.Victim, now int64) {
	b := v.Block
	if m.copies(n, b) > 0 {
		m.nodeBlock[n][b]--
	}
	p := b.Page()
	pg := &m.pages[p]
	if v.Dirty {
		inPC := false
		if m.pc != nil && pg.home != n {
			if pe := m.pc[n].Entry(p); pe != nil && pe.Valid&(1<<uint(b.Index())) != 0 {
				pe.Dirty |= 1 << uint(b.Index())
				inPC = true
			}
		}
		switch {
		case inPC:
			// Dirty data lands in the S-COMA frame; no traffic.
		case m.bc != nil && pg.home != n && !pg.replica(n) &&
			m.bc[n].Probe(b) != cache.Invalid:
			// Dirty data folds into the inclusive block cache.
			m.bc[n].SetState(b, cache.Modified)
		case pg.home == n:
			// Writeback to local memory over the bus.
			m.dir.WriteBack(b, n)
		default:
			m.writebackRemote(n, pg.home, b, now)
		}
	}
	if m.nodeHolds(n, b) {
		// Sibling caches still hold a (now clean) copy: the writeback
		// above must not deregister the node.
		if v.Dirty {
			m.dir.AddSharer(b, n)
		}
	} else {
		// Final departure by eviction. A silently dropped clean copy
		// leaves the directory conservative; dirty departures were
		// written back above.
		m.nodeBlock[n][b] &^= flagDepartInval
	}
}

// evictFromBlockCache handles a victim displaced from the block cache,
// enforcing inclusion over the node's L1s.
//
//repro:hotpath
func (m *Machine) evictFromBlockCache(n int, v cache.Victim, now int64) {
	b := v.Block
	_, dirty := m.purgeL1s(n, b, -1)
	if v.Dirty || dirty {
		m.writebackRemote(n, m.pages[b.Page()].home, b, now)
	}
	m.nodeBlock[n][b] &^= flagDepartInval // capacity departure
}

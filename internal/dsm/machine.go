package dsm

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/interconnect"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Message sizes in bytes for traffic accounting.
const (
	msgHeaderBytes = 8
	msgBlockBytes  = msgHeaderBytes + config.BlockBytes
)

// A node's byte per block (Machine.nodeBlock) packs the count of the
// node's L1s holding the block, in its low copyBits bits, with two
// history flags above it.
const (
	copyBits        = 6
	copyMask        = 1<<copyBits - 1     // config.MaxCPUsPerNode, the most the count reaches
	flagEverCached  = 1 << copyBits       // node has cached the block at least once
	flagDepartInval = 1 << (copyBits + 1) // last departure was an invalidation
)

// mrCounter is the per-page home-side migration/replication counter bank.
type mrCounter struct {
	read  []int32
	write []int32
	// homeUse counts the home node's own references to the page (its
	// local misses, observed by the memory controller); it weighs
	// against migration but never against replication, since it
	// reflects no remote traffic.
	homeUse    int32
	sinceReset int32
	// noRepl blocks replication until the next counter reset: set when
	// a write collapse proves the page is not read-only, it prevents
	// replicate/collapse thrashing on data with phased read/write
	// behaviour.
	noRepl bool
}

// page is the protocol state of one global page: its home, which
// nodes map it and which hold a read-only replica, and the per-page
// counters the page operations consult. Whether node n holds the page
// in an S-COMA frame is pc[n].Entry's to say; R-NUMA's per-node refetch
// counters live in Machine.ref.
type page struct {
	// home is the page's home node, or -1 before its first touch.
	home int
	// mapped and replicas are node bitmasks, like the directory's
	// sharer sets. A node's mapped bit is set while it holds a valid
	// mapping: lazy TLB invalidation drops the bit when the page moves,
	// so the node's next touch faults. Its replicas bit is set while it
	// holds a read-only replica in local memory.
	mapped, replicas uint64
	// busy is the time until which a page operation blocks access.
	busy int64
	// misses counts the page's lifetime remote misses (for
	// Spec.RelocDelayMisses).
	misses int64
	// mig is the home-side migration/replication counter bank, built
	// on first use (migCounter).
	mig *mrCounter
	// replicated marks the page read-only replicated: writes fault and
	// collapse it.
	replicated bool
	// placed records that first-touch placement ran after the Phase
	// marker.
	placed bool
}

// replica reports whether node n holds a read-only replica of the page.
//
//repro:hotpath
func (pg *page) replica(n int) bool { return pg.replicas&(1<<uint(n)) != 0 }

// Machine is one simulated DSM cluster executing one trace.
type Machine struct {
	spec Spec
	cl   config.Cluster
	tm   config.Timing
	th   config.Thresholds

	numBlocks uint64
	numPages  uint64

	sched   *engine.Scheduler
	barrier *engine.Barrier
	locks   map[uint64]*engine.Lock
	lockOwn map[uint64]int // last node to hold the lock

	// cpuNode maps CPU id to node, replacing a division on every
	// dispatched op.
	cpuNode []int32

	bus  []*engine.Resource // per node memory bus
	ni   []*engine.Resource // per node network interface
	home []*engine.Resource // per node home protocol controller

	// fabric is the interconnect model: every protocol message is
	// routed over it, charging per-link byte counters and one hop
	// latency per link crossed. The default ideal crossbar reproduces
	// the flat network-latency model exactly.
	fabric *interconnect.Fabric

	dir   *directory.Directory
	pages []page // [page] per-page protocol state

	l1 []*cache.L1         // per CPU
	bc []*cache.BlockCache // per node, nil if absent
	pc []*cache.PageCache  // per node, nil if absent

	// dir, pages, l1, bc, pc and the two per-node tables live on a
	// Tables set (see bind).
	nodeBlock [][]uint8 // [node][block] L1-copy count and history flags
	ref       [][]int32 // [node][page] R-NUMA refetch counters; nil unless RNUMA

	// throttled counts the page moves the contention gate deferred
	// (Spec.ContentionGate).
	throttled int64

	// fixed latency components derived from the timing model; see
	// deriveFixed.
	localFixed  int64
	remoteFixed int64

	phaseDone bool

	// opScratch is the reusable page-operation carrier handed out by
	// beginPageOp: page operations never overlap (each runs to
	// completion inside the access that triggered it), so one scratch
	// object per machine removes the per-operation allocation.
	opScratch pageOp

	// Audit mode (see audit.go): the machine checks event-time
	// discipline as it runs — scheduler dispatch order, the page-busy
	// horizon, resource acquires and message injections against one
	// floor — and accumulates violations for the end-of-run
	// internal/audit checks instead of panicking mid-simulation.
	auditing                       bool
	lastDispatch                   int64
	floor                          int64
	violations                     stats.ViolationLog
	staleAcquires, staleInjections staleTimes

	// tel receives time-resolved telemetry (windowed series and the
	// page-operation timeline) as the trace executes. Telemetry is
	// observational: it changes no simulated behaviour. The nil
	// default is a no-op observer whose hooks inline to one branch, so
	// the hook sites call it unguarded.
	tel *telemetry.Collector

	st *stats.Sim
}

// NewMachine builds a machine for a trace with the given shared
// footprint, on freshly allocated tables.
func NewMachine(spec Spec, cl config.Cluster, tm config.Timing, th config.Thresholds, footprintBytes uint64, app string) (*Machine, error) {
	return newMachine(spec, cl, tm, th, footprintBytes, app, new(Tables))
}

// newMachine is NewMachine on the table set tb (see Tables).
func newMachine(spec Spec, cl config.Cluster, tm config.Timing, th config.Thresholds, footprintBytes uint64, app string, tb *Tables) (*Machine, error) {
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	numPages := (footprintBytes + config.PageBytes - 1) / config.PageBytes
	if numPages == 0 {
		numPages = 1
	}
	numBlocks := numPages * config.BlocksPerPage

	m := &Machine{
		spec:      spec,
		cl:        cl,
		tm:        tm,
		th:        th,
		numBlocks: numBlocks,
		numPages:  numPages,
		locks:     make(map[uint64]*engine.Lock),
		lockOwn:   make(map[uint64]int),
		st:        stats.New(spec.Name, app, cl.Nodes),
	}
	m.sched = engine.NewScheduler(cl.TotalCPUs())
	m.barrier = engine.NewBarrier(cl.TotalCPUs(), tm.LocalMiss)
	m.cpuNode = make([]int32, cl.TotalCPUs())
	for i := range m.cpuNode {
		m.cpuNode[i] = int32(i / cl.CPUsPerNode)
	}
	topo, err := tb.topology(cl.Net, cl.Nodes)
	if err != nil {
		return nil, err
	}
	m.fabric = interconnect.NewFabric(topo, tm)

	m.bus = engine.NewResourceBank(cl.Nodes)
	m.ni = engine.NewResourceBank(cl.Nodes)
	m.home = engine.NewResourceBank(cl.Nodes)
	tb.bind(m)
	m.deriveFixed()
	return m, nil
}

// deriveFixed splits the Table 3 end-to-end latencies into the fixed
// component charged on top of the modeled resource occupancies, so that
// an uncontended access costs exactly the Table 3 number.
func (m *Machine) deriveFixed() {
	t := m.tm
	m.localFixed = t.LocalMiss - t.BusOccupancy
	if m.localFixed < 0 {
		m.localFixed = 0
	}
	unloaded := 2*t.BusOccupancy + 2*t.NIOccupancy + t.HomeOccupancy + 2*t.NetworkLatency
	m.remoteFixed = t.RemoteMiss - unloaded
	if m.remoteFixed < 0 {
		m.remoteFixed = 0
	}
}

// Stats returns the machine's statistics sink.
func (m *Machine) Stats() *stats.Sim { return m.st }

// AttachTelemetry binds a telemetry collector to the machine (and its
// fabric): windowed series — page ops by kind, misses by class,
// per-node traffic, per-link fabric bytes, dispatched ops — and, when
// the collector records a timeline, the discrete page-operation events,
// all keyed by simulated time. Telemetry changes no simulated
// behaviour: an instrumented run produces byte-identical statistics.
// A nil c leaves telemetry off: the machine keeps its nil collector,
// a no-op observer whose hooks inline to one branch each.
func (m *Machine) AttachTelemetry(c *telemetry.Collector) {
	if c == nil {
		return
	}
	links := m.fabric.Topology().Links
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.Name
	}
	c.Bind(m.cl.Nodes, names)
	m.fabric.SetObserver(c)
	m.tel = c
}

// traffic charges bytes put on the network by node n at event time t:
// the node's TrafficBytes and, under telemetry, the window of t. It is
// the only place TrafficBytes grows.
//
//repro:hotpath
func (m *Machine) traffic(n int, bytes, t int64) {
	m.st.Nodes[n].TrafficBytes += bytes
	m.tel.Traffic(n, bytes, t)
}

// miss charges one L1 miss of class cls on node n, served remotely or
// on the node, completing at event time t: the node's miss breakdown
// and, under telemetry, the window of t. It is the only place the miss
// counters grow.
//
//repro:hotpath
func (m *Machine) miss(n int, cls stats.MissClass, remote bool, t int64) {
	if remote {
		m.st.Nodes[n].RemoteMisses[cls]++
	} else {
		m.st.Nodes[n].LocalMisses[cls]++
	}
	m.tel.Miss(cls, remote, t)
}

// chargeSync accounts cycles node n spent synchronizing: at a barrier,
// on a lock (its wait and the lock word's transfer) or waiting out a
// page operation in flight. It is the only place SyncCycles grows.
//
//repro:hotpath
func (m *Machine) chargeSync(n int, cycles int64) {
	m.st.Nodes[n].SyncCycles += cycles
}

// waitPageBusy stalls c, on node n, until any page operation in flight
// on p has ended, charging the wait as synchronization time.
//
//repro:hotpath
func (m *Machine) waitPageBusy(c *engine.CPU, n int, p memory.Page) {
	if t := m.pages[p].busy; c.Clock < t {
		m.chargeSync(n, t-c.Clock)
		c.Clock = t
	}
}

// setPageBusy extends page p's busy horizon to t. Page operations only
// ever push the horizon forward — every accessor waits it out before
// starting a new operation — so a regression means an operation
// completed in the simulated past and is flagged under audit.
func (m *Machine) setPageBusy(p memory.Page, t int64) {
	pg := &m.pages[p]
	if t < pg.busy {
		if m.auditing {
			m.violations.Addf("dsm: page %d busy horizon regressed from %d to %d", p, pg.busy, t)
		}
		return
	}
	pg.busy = t
}

// Fabric returns the interconnect model the machine routes protocol
// messages over.
func (m *Machine) Fabric() *interconnect.Fabric { return m.fabric }

// nodeOf returns the node a CPU belongs to.
func (m *Machine) nodeOf(cpu int) int { return int(m.cpuNode[cpu]) }

// cpusOf returns the CPU id range [lo, hi) of a node.
func (m *Machine) cpusOf(node int) (lo, hi int) {
	return node * m.cl.CPUsPerNode, (node + 1) * m.cl.CPUsPerNode
}

// migCounter returns the page's counter bank, creating it on first use.
func (m *Machine) migCounter(p memory.Page) *mrCounter {
	pg := &m.pages[p]
	if pg.mig == nil {
		n := m.cl.Nodes
		rw := make([]int32, 2*n)
		pg.mig = &mrCounter{read: rw[:n:n], write: rw[n:]}
	}
	return pg.mig
}

// reset zeroes a counter bank and lifts any replication block.
func (c *mrCounter) reset() {
	for i := range c.read {
		c.read[i] = 0
		c.write[i] = 0
	}
	c.homeUse = 0
	c.sinceReset = 0
	c.noRepl = false
}

// total returns read+write misses recorded for a node.
func (c *mrCounter) total(node int) int32 { return c.read[node] + c.write[node] }

// anyWrites reports whether any node recorded a write miss since reset.
func (c *mrCounter) anyWrites() bool {
	for _, w := range c.write {
		if w != 0 {
			return true
		}
	}
	return false
}

// invalidateOnNode removes every copy of block b held on node n (L1s,
// block cache, and S-COMA frame tags). byInval marks the departure as a
// coherence invalidation; otherwise it is recorded as an eviction, which
// makes the node's next miss classify as capacity/conflict. It reports
// whether any copy existed and whether any copy was dirty (the caller
// owns writeback accounting).
func (m *Machine) invalidateOnNode(n int, b memory.Block, byInval bool) (present, dirty bool) {
	present, dirty = m.purgeL1s(n, b, -1)
	if m.bc != nil {
		if p, d := m.bc[n].Invalidate(b); p {
			present = true
			dirty = dirty || d
		}
	}
	if m.pc != nil {
		pg := b.Page()
		if e := m.pc[n].Entry(pg); e != nil {
			bit := uint64(1) << uint(b.Index())
			if e.Valid&bit != 0 {
				present = true
				dirty = dirty || e.Dirty&bit != 0
				e.Valid &^= bit
				e.Dirty &^= bit
			}
		}
	}
	if present {
		if byInval {
			m.nodeBlock[n][b] |= flagDepartInval
		} else {
			m.nodeBlock[n][b] &^= flagDepartInval
		}
	}
	return present, dirty
}

// purgeL1s invalidates block b in the L1 of every CPU on node n except
// CPU except (-1 spares none), keeping the node's copy count, and
// reports whether any copy was present and whether any was dirty.
func (m *Machine) purgeL1s(n int, b memory.Block, except int) (present, dirty bool) {
	if m.copies(n, b) == 0 {
		return false, false
	}
	lo, hi := m.cpusOf(n)
	for c := lo; c < hi; c++ {
		if c == except {
			continue
		}
		if p, d := m.l1[c].Invalidate(b); p {
			present = true
			dirty = dirty || d
			m.nodeBlock[n][b]-- // the count is the low bits
		}
	}
	return present, dirty
}

// downgradeOnNode demotes every copy of block b on node n to the clean
// Shared state, reporting whether any copy was dirty (data must be
// written back to home by the caller).
func (m *Machine) downgradeOnNode(n int, b memory.Block) (wasDirty bool) {
	if m.copies(n, b) > 0 {
		lo, hi := m.cpusOf(n)
		for c := lo; c < hi; c++ {
			if m.l1[c].Lookup(b) == cache.Modified {
				m.l1[c].SetState(b, cache.Shared)
				wasDirty = true
			}
		}
	}
	if m.bc != nil {
		if m.bc[n].Probe(b) == cache.Modified {
			m.bc[n].SetState(b, cache.Shared)
			wasDirty = true
		}
	}
	if m.pc != nil {
		if e := m.pc[n].Entry(b.Page()); e != nil {
			bit := uint64(1) << uint(b.Index())
			if e.Dirty&bit != 0 {
				e.Dirty &^= bit
				wasDirty = true
			}
		}
	}
	return wasDirty
}

// nodeHolds reports whether node n currently caches block b anywhere.
func (m *Machine) nodeHolds(n int, b memory.Block) bool {
	if m.copies(n, b) > 0 {
		return true
	}
	if m.bc != nil && m.bc[n].Probe(b) != cache.Invalid {
		return true
	}
	if m.pc != nil {
		if e := m.pc[n].Entry(b.Page()); e != nil && e.Valid&(1<<uint(b.Index())) != 0 {
			return true
		}
	}
	return false
}

// copies returns the number of node n's L1s holding block b.
//
//repro:hotpath
func (m *Machine) copies(n int, b memory.Block) uint8 { return m.nodeBlock[n][b] & copyMask }

// markCached records that node n now caches block b.
func (m *Machine) markCached(n int, b memory.Block) {
	m.nodeBlock[n][b] |= flagEverCached
	m.nodeBlock[n][b] &^= flagDepartInval
}

// classify determines the miss class for node n fetching block b, based
// on the node's history flags. Must be called before markCached.
func (m *Machine) classify(n int, b memory.Block) stats.MissClass {
	f := m.nodeBlock[n][b]
	if f&flagEverCached == 0 {
		return stats.Cold
	}
	if f&flagDepartInval != 0 {
		return stats.Coherence
	}
	return stats.CapacityConflict
}

// pageInvariants are the page-record invariants Verify checks on every
// page, in this order.
var pageInvariants = []struct {
	name  string
	holds func(m *Machine, p memory.Page) bool
}{
	{"a page with replicas is replicated", func(m *Machine, p memory.Page) bool {
		pg := &m.pages[p]
		return pg.replicas == 0 || pg.replicated
	}},
	{"replicas are a subset of mapped", func(m *Machine, p memory.Page) bool {
		pg := &m.pages[p]
		return pg.replicas&^pg.mapped == 0
	}},
	{"the home holds no replica", func(m *Machine, p memory.Page) bool {
		pg := &m.pages[p]
		return pg.home < 0 || !pg.replica(pg.home)
	}},
	{"the home holds no S-COMA frame", func(m *Machine, p memory.Page) bool {
		h := m.pages[p].home
		return m.pc == nil || h < 0 || m.pc[h].Entry(p) == nil
	}},
}

// Verify runs consistency checks over the machine state: the directory
// invariants, agreement between the directory sharer sets and the
// actual cache contents (every cached copy must be covered by the
// conservative sharer set; every dirty copy must be the registered
// owner's), and then the page-record invariants (pageInvariants). It
// walks each L1's lines and reports the first cache violation by lowest
// CPU, then lowest block; the first page violation by lowest page, then
// table order.
func (m *Machine) Verify() error {
	if err := m.dir.Check(); err != nil {
		return err
	}
	for c, l1 := range m.l1 {
		n := m.nodeOf(c)
		// Lines hold blocks in no order: keep the lowest violating
		// block, starting from the footprint's end so that a line
		// past it is skipped.
		var first error
		firstBlock := memory.Block(m.numBlocks)
		for i := range l1.Sets() {
			b, st := l1.Line(i)
			if st == cache.Invalid || b >= firstBlock {
				continue
			}
			e := m.dir.Entry(b)
			if e.Sharers&(1<<uint(n)) == 0 {
				first = fmt.Errorf("dsm: cpu %d caches block %d but node %d not in sharers", c, b, n)
			} else if st == cache.Modified && (e.State != directory.ModifiedState || int(e.Owner) != n) {
				first = fmt.Errorf("dsm: cpu %d holds block %d dirty but directory says %v owner %d",
					c, b, e.State, e.Owner)
			} else {
				continue
			}
			firstBlock = b
		}
		if first != nil {
			return first
		}
	}
	for p := range m.pages {
		for _, inv := range pageInvariants {
			if !inv.holds(m, memory.Page(p)) {
				pg := &m.pages[p]
				return fmt.Errorf("dsm: page %d breaks %q (home %d, mapped %b, replicas %b, replicated %v)",
					p, inv.name, pg.home, pg.mapped, pg.replicas, pg.replicated)
			}
		}
	}
	return nil
}

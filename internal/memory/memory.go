// Package memory models the global shared address space of the DSM
// cluster: a bump allocator applications allocate shared data from, and a
// page table that tracks, for every page, its home node, its caching mode
// on every node and its replication state. Lazy TLB invalidation is not
// modelled here: the protocol layer keeps each node's mappings and drops
// them when a page moves, so the node's next touch faults.
package memory

import (
	"fmt"

	"repro/internal/config"
)

// Addr is a byte address in the global shared address space.
type Addr uint64

// Block returns the global block number containing a.
func (a Addr) Block() Block { return Block(a >> config.BlockShift) }

// Page returns the global page number containing a.
func (a Addr) Page() Page { return Page(a >> config.PageShift) }

// Block is a global coherence-block number.
type Block uint64

// Page returns the page containing the block.
func (b Block) Page() Page { return Page(b >> (config.PageShift - config.BlockShift)) }

// Index returns the block's index within its page (0..BlocksPerPage-1).
func (b Block) Index() int { return int(b) & (config.BlocksPerPage - 1) }

// Addr returns the first byte address of the block.
func (b Block) Addr() Addr { return Addr(b << config.BlockShift) }

// Page is a global page number.
type Page uint64

// FirstBlock returns the first block of the page.
func (p Page) FirstBlock() Block {
	return Block(p << (config.PageShift - config.BlockShift))
}

// Addr returns the first byte address of the page.
func (p Page) Addr() Addr { return Addr(p << config.PageShift) }

// Allocator is a page-aligned bump allocator over the shared address
// space. Allocations never overlap and are stable for a given sequence of
// calls, so traces are reproducible.
type Allocator struct {
	next Addr
	regs []Region
}

// Region records one named allocation.
type Region struct {
	Name  string
	Start Addr
	Size  uint64
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool {
	return a >= r.Start && uint64(a-r.Start) < r.Size
}

// NewAllocator returns an empty allocator starting at address 0.
func NewAllocator() *Allocator { return &Allocator{} }

// Alloc reserves size bytes, rounded up to a whole number of pages, and
// returns the region. Page alignment guarantees distinct data structures
// never share a page, matching how SPLASH-2 codes pad shared arrays.
func (al *Allocator) Alloc(name string, size uint64) Region {
	if size == 0 {
		size = 1
	}
	rounded := (size + config.PageBytes - 1) &^ uint64(config.PageBytes-1)
	r := Region{Name: name, Start: al.next, Size: rounded}
	al.next += Addr(rounded)
	al.regs = append(al.regs, r)
	return r
}

// Pages returns the total number of pages allocated so far.
func (al *Allocator) Pages() uint64 { return uint64(al.next) >> config.PageShift }

// Bytes returns the total bytes allocated so far.
func (al *Allocator) Bytes() uint64 { return uint64(al.next) }

// RegionOf returns the region containing a, if any.
func (al *Allocator) RegionOf(a Addr) (Region, bool) {
	for _, r := range al.regs {
		if r.Contains(a) {
			return r, true
		}
	}
	return Region{}, false
}

// PageMode is how a node currently caches a given page.
type PageMode uint8

const (
	// ModeUnmapped means the node has not touched the page.
	ModeUnmapped PageMode = iota
	// ModeCCNUMA means remote blocks are cached in processor/block
	// caches only.
	ModeCCNUMA
	// ModeSCOMA means the node holds the page in its S-COMA page cache.
	ModeSCOMA
	// ModeReplica means the node holds a read-only replica in its local
	// memory.
	ModeReplica
	// ModeHome means the page's home is this node (local memory).
	ModeHome
)

// String names the mode.
func (m PageMode) String() string {
	switch m {
	case ModeUnmapped:
		return "unmapped"
	case ModeCCNUMA:
		return "ccnuma"
	case ModeSCOMA:
		return "scoma"
	case ModeReplica:
		return "replica"
	case ModeHome:
		return "home"
	default:
		return fmt.Sprintf("PageMode(%d)", int(m))
	}
}

// PageInfo is the page table entry for one global page.
type PageInfo struct {
	// Home is the page's current home node, or -1 before first touch.
	Home int

	// Replicated marks the page as read-only replicated; writes fault.
	Replicated bool

	// Mode is the per-node caching mode.
	Mode []PageMode

	// Touched reports whether any access has reached the page (first-
	// touch placement has run).
	Touched bool
}

// PageTable is the global page table. It is sized lazily as pages are
// touched.
type PageTable struct {
	nodes int
	pages []PageInfo
}

// NewPageTable returns a page table for a cluster with the given node
// count.
func NewPageTable(nodes int) *PageTable {
	return &PageTable{nodes: nodes}
}

// grow ensures the table covers page p.
func (pt *PageTable) grow(p Page) {
	for uint64(len(pt.pages)) <= uint64(p) {
		pi := PageInfo{Home: -1, Mode: make([]PageMode, pt.nodes)}
		pt.pages = append(pt.pages, pi)
	}
}

// Presize extends the table to cover pages [0, n), sharing one backing
// allocation across the per-node mode vectors. Replay machines know the
// trace footprint up front, so presizing makes Entry allocation-free on
// the access path.
func (pt *PageTable) Presize(n int) {
	if n <= len(pt.pages) {
		return
	}
	fresh := n - len(pt.pages)
	modes := make([]PageMode, fresh*pt.nodes)
	for i := 0; i < fresh; i++ {
		pt.pages = append(pt.pages, PageInfo{
			Home: -1,
			Mode: modes[i*pt.nodes : (i+1)*pt.nodes : (i+1)*pt.nodes],
		})
	}
}

// Entry returns a pointer to the page's entry, creating it if needed.
func (pt *PageTable) Entry(p Page) *PageInfo {
	pt.grow(p)
	return &pt.pages[p]
}

// NumPages returns how many pages the table currently covers.
func (pt *PageTable) NumPages() int { return len(pt.pages) }

// Nodes returns the node count the table was built for.
func (pt *PageTable) Nodes() int { return pt.nodes }

// FirstTouch applies first-touch placement: if the page has no home yet,
// the toucher's node becomes the home. It returns the (possibly new)
// home node.
func (pt *PageTable) FirstTouch(p Page, node int) int {
	e := pt.Entry(p)
	if !e.Touched {
		e.Touched = true
		e.Home = node
		e.Mode[node] = ModeHome
	}
	return e.Home
}

// SetHome moves the page's home to the given node (page migration). The
// old home's mode reverts to unmapped; sharers' modes are managed by the
// protocol layer.
func (pt *PageTable) SetHome(p Page, node int) {
	e := pt.Entry(p)
	if e.Home >= 0 && e.Home != node {
		e.Mode[e.Home] = ModeUnmapped
	}
	e.Home = node
	e.Mode[node] = ModeHome
}

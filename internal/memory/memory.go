// Package memory models the global shared address space of the DSM
// cluster: byte addresses and their coherence blocks and pages, and the
// bump allocator applications allocate shared data from. Where a page
// lives and who maps, caches or replicates it is protocol state, kept
// per page by internal/dsm.
package memory

import "repro/internal/config"

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
}

// Region records one named allocation.
type Region struct {
	Name  string
	Start Addr
	Size  uint64
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
	return r
}

// Bytes returns the total bytes allocated so far.
func (al *Allocator) Bytes() uint64 { return uint64(al.next) }

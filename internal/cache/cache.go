// Package cache models the three caching structures of the simulated
// cluster at coherence-block granularity: the per-processor direct-mapped
// L1, the per-node set-associative SRAM block cache of CC-NUMA cluster
// devices, and the per-node page-grain S-COMA page cache of R-NUMA with
// its fine-grain block-presence tags.
//
// The structures are probed on every simulated memory access, so they are
// built for the replay hot path: flat arrays indexed by set or by
// block/page number, no map lookups, and no steady-state allocation.
// NewPageCacheSized, PageCache.Reset and BlockCache.Reset size the
// index arrays for the trace footprint so they are allocated once up
// front. L1.Reset, BlockCache.Reset and PageCache.Reset empty a cache
// in place, the page cache keeping its frames for later allocations, so
// a run list's machines reuse one set of caches (see dsm.Tables).
package cache

import (
	"repro/internal/config"
	"repro/internal/memory"
)

// LineState is the coherence state of a cached block copy.
type LineState uint8

const (
	// Invalid means the slot holds no valid block.
	Invalid LineState = iota
	// Shared means a clean, possibly multiply-cached copy.
	Shared
	// Modified means a dirty, exclusively writable copy.
	Modified
)

// String names the state.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Shared:
		return "shared"
	case Modified:
		return "modified"
	default:
		return "?"
	}
}

// Victim describes a block displaced from a cache.
type Victim struct {
	Block memory.Block
	Dirty bool
	Valid bool
}

// L1 is a direct-mapped processor cache modeled at block granularity.
type L1 struct {
	sets  uint64
	tags  []memory.Block
	state []LineState
}

// NewL1 builds a direct-mapped L1 of the given size in bytes.
func NewL1(bytes int) *L1 {
	sets := uint64(bytes / config.BlockBytes)
	if sets == 0 || sets&(sets-1) != 0 {
		panic("cache: L1 size must be a power-of-two number of blocks")
	}
	return &L1{
		sets:  sets,
		tags:  make([]memory.Block, sets),
		state: make([]LineState, sets),
	}
}

// Sets returns the number of lines.
func (c *L1) Sets() int { return int(c.sets) }

// Reset empties the cache, leaving it as NewL1 built it.
func (c *L1) Reset() {
	clear(c.tags)
	clear(c.state)
}

// Line returns line i's block and state; an Invalid line's block means
// nothing.
func (c *L1) Line(i int) (memory.Block, LineState) { return c.tags[i], c.state[i] }

//repro:hotpath
func (c *L1) idx(b memory.Block) uint64 { return uint64(b) & (c.sets - 1) }

// Lookup returns the state of block b in the cache (Invalid on miss).
//
//repro:hotpath
func (c *L1) Lookup(b memory.Block) LineState {
	i := c.idx(b)
	if c.state[i] != Invalid && c.tags[i] == b {
		return c.state[i]
	}
	return Invalid
}

// SetState updates the state of a resident block. It panics if the block
// is not resident — callers must have checked with Lookup.
//
//repro:hotpath
func (c *L1) SetState(b memory.Block, s LineState) {
	i := c.idx(b)
	if c.state[i] == Invalid || c.tags[i] != b {
		panic("cache: SetState on non-resident block")
	}
	c.state[i] = s
}

// Insert places block b with the given state, returning the displaced
// victim (Valid=false if the slot was empty). Inserting a block that is
// already resident just updates its state and returns an invalid victim.
//
//repro:hotpath
func (c *L1) Insert(b memory.Block, s LineState) Victim {
	i := c.idx(b)
	var v Victim
	if c.state[i] != Invalid {
		if c.tags[i] == b {
			c.state[i] = s
			return Victim{}
		}
		v = Victim{Block: c.tags[i], Dirty: c.state[i] == Modified, Valid: true}
	}
	c.tags[i] = b
	c.state[i] = s
	return v
}

// Invalidate removes block b, returning whether it was present and dirty.
//
//repro:hotpath
func (c *L1) Invalidate(b memory.Block) (present, dirty bool) {
	i := c.idx(b)
	if c.state[i] == Invalid || c.tags[i] != b {
		return false, false
	}
	dirty = c.state[i] == Modified
	c.state[i] = Invalid
	return true, dirty
}

// BlockCache is the per-node CC-NUMA cluster (remote/block) cache: N-way
// set associative with LRU replacement. An infinite variant (Ways == 0)
// backs the perfect-CC-NUMA baseline.
//
// The finite variant stores all sets in two flat arrays (ways
// consecutive slots per set, MRU first); the infinite variant stores the
// per-block state in a slice indexed by block number, grown on demand —
// no map on the probe path either way.
type BlockCache struct {
	sets uint64
	ways int

	// finite representation: slot s*ways+i is way i of set s, ordered
	// MRU to LRU; size[s] is the set's occupancy.
	tags  []memory.Block
	state []LineState
	size  []uint8

	// infinite representation: state indexed by block number.
	infinite bool
	inf      []LineState
}

// NewBlockCache builds a block cache of the given total size and
// associativity.
func NewBlockCache(bytes, ways int) *BlockCache {
	blocks := bytes / config.BlockBytes
	sets := uint64(blocks / ways)
	if sets == 0 || sets&(sets-1) != 0 {
		panic("cache: block cache sets must be a power of two")
	}
	if ways > 255 {
		panic("cache: block cache associativity exceeds 255")
	}
	return &BlockCache{
		sets:  sets,
		ways:  ways,
		tags:  make([]memory.Block, int(sets)*ways),
		state: make([]LineState, int(sets)*ways),
		size:  make([]uint8, sets),
	}
}

// NewInfiniteBlockCache builds the perfect-CC-NUMA block cache: unbounded
// capacity, no evictions. Its state array grows on demand; Reset sizes
// it for a footprint up front.
func NewInfiniteBlockCache() *BlockCache {
	return &BlockCache{infinite: true}
}

// Reset empties the cache, leaving it as its constructor built it. A
// finite cache keeps its geometry. The infinite variant's state array is
// sized for blocks (the trace footprint), on its old storage when that
// holds blocks, so probing any block below that bound never allocates.
func (c *BlockCache) Reset(blocks int) {
	if !c.infinite {
		clear(c.tags)
		clear(c.state)
		clear(c.size)
		return
	}
	if cap(c.inf) < blocks {
		c.inf = make([]LineState, blocks)
		return
	}
	c.inf = c.inf[:blocks]
	clear(c.inf)
}

//repro:hotpath
func (c *BlockCache) set(b memory.Block) uint64 { return uint64(b) & (c.sets - 1) }

// grow extends the infinite state array to cover block b. Entries
// past the length may be stale after Reset, so reslicing clears them.
func (c *BlockCache) grow(b memory.Block) {
	need := int(b) + 1
	if cap(c.inf) >= need {
		old := len(c.inf)
		c.inf = c.inf[:need]
		clear(c.inf[old:])
		return
	}
	bigger := make([]LineState, need, need+need/2)
	copy(bigger, c.inf)
	c.inf = bigger
}

// Lookup returns the block's state, promoting it to most-recently-used on
// a hit.
//
//repro:hotpath
func (c *BlockCache) Lookup(b memory.Block) LineState {
	if c.infinite {
		if int(b) < len(c.inf) {
			return c.inf[b]
		}
		return Invalid
	}
	s := c.set(b)
	base := int(s) * c.ways
	n := int(c.size[s])
	for i := 0; i < n; i++ {
		if c.tags[base+i] == b {
			st := c.state[base+i]
			c.promote(base, i)
			return st
		}
	}
	return Invalid
}

// Probe returns the block's state without touching LRU order.
//
//repro:hotpath
func (c *BlockCache) Probe(b memory.Block) LineState {
	if c.infinite {
		if int(b) < len(c.inf) {
			return c.inf[b]
		}
		return Invalid
	}
	s := c.set(b)
	base := int(s) * c.ways
	n := int(c.size[s])
	for i := 0; i < n; i++ {
		if c.tags[base+i] == b {
			return c.state[base+i]
		}
	}
	return Invalid
}

// promote moves slot base+i to the MRU position (base).
//
//repro:hotpath
func (c *BlockCache) promote(base, i int) {
	if i == 0 {
		return
	}
	t, st := c.tags[base+i], c.state[base+i]
	copy(c.tags[base+1:base+i+1], c.tags[base:base+i])
	copy(c.state[base+1:base+i+1], c.state[base:base+i])
	c.tags[base], c.state[base] = t, st
}

// Insert places block b, returning the LRU victim if the set was full.
// Inserting a resident block refreshes its state and LRU position.
//
//repro:hotpath
func (c *BlockCache) Insert(b memory.Block, st LineState) Victim {
	if c.infinite {
		if int(b) >= len(c.inf) {
			c.grow(b)
		}
		c.inf[b] = st
		return Victim{}
	}
	s := c.set(b)
	base := int(s) * c.ways
	n := int(c.size[s])
	for i := 0; i < n; i++ {
		if c.tags[base+i] == b {
			c.state[base+i] = st
			c.promote(base, i)
			return Victim{}
		}
	}
	var v Victim
	if n == c.ways {
		// evict LRU (last slot)
		last := base + c.ways - 1
		v = Victim{Block: c.tags[last], Dirty: c.state[last] == Modified, Valid: true}
		n--
	} else {
		c.size[s]++
	}
	// shift and place at MRU
	copy(c.tags[base+1:base+n+1], c.tags[base:base+n])
	copy(c.state[base+1:base+n+1], c.state[base:base+n])
	c.tags[base], c.state[base] = b, st
	return v
}

// SetState updates the state of a resident block; it is a no-op if the
// block is absent.
//
//repro:hotpath
func (c *BlockCache) SetState(b memory.Block, st LineState) {
	if c.infinite {
		if int(b) < len(c.inf) && c.inf[b] != Invalid {
			c.inf[b] = st
		}
		return
	}
	s := c.set(b)
	base := int(s) * c.ways
	n := int(c.size[s])
	for i := 0; i < n; i++ {
		if c.tags[base+i] == b {
			c.state[base+i] = st
			return
		}
	}
}

// Invalidate removes block b, reporting presence and dirtiness.
//
//repro:hotpath
func (c *BlockCache) Invalidate(b memory.Block) (present, dirty bool) {
	if c.infinite {
		if int(b) >= len(c.inf) || c.inf[b] == Invalid {
			return false, false
		}
		dirty = c.inf[b] == Modified
		c.inf[b] = Invalid
		return true, dirty
	}
	s := c.set(b)
	base := int(s) * c.ways
	n := int(c.size[s])
	for i := 0; i < n; i++ {
		if c.tags[base+i] == b && c.state[base+i] != Invalid {
			dirty = c.state[base+i] == Modified
			copy(c.tags[base+i:base+n-1], c.tags[base+i+1:base+n])
			copy(c.state[base+i:base+n-1], c.state[base+i+1:base+n])
			c.size[s]--
			return true, dirty
		}
	}
	return false, false
}

// PageEntry is one S-COMA page frame: fine-grain tags record which blocks
// of the page are valid and which are dirty.
type PageEntry struct {
	Page  memory.Page
	Valid uint64 // bit i: block i of the page is present
	Dirty uint64 // bit i: block i is dirty

	prev, next *PageEntry
}

// PageCache is the per-node S-COMA page cache: a set of page frames with
// LRU replacement at page granularity and per-block presence tags. A
// capacity of zero pages means unbounded (R-NUMA-Inf).
//
// Frames are indexed by page number in a flat array (no map on the probe
// path), and freed frames are recycled by later Allocates, most recently
// freed first, so steady-state replacement allocates nothing. A frame
// returned by EvictLRU or Remove is therefore only valid until the next
// Allocate on the same cache.
type PageCache struct {
	capacity int // pages; 0 = unbounded
	entries  []*PageEntry
	resident int

	// LRU list: head is MRU, tail is LRU.
	head, tail *PageEntry

	// free lists the evicted and removed frames, linked by next, most
	// recently freed first; Allocate takes from its head.
	free *PageEntry
}

// NewPageCache builds a page cache holding the given number of bytes
// worth of page frames. bytes = 0 builds the unbounded variant.
func NewPageCache(bytes int) *PageCache {
	return NewPageCacheSized(bytes, 0)
}

// NewPageCacheSized is NewPageCache with the frame index preallocated
// for the given number of pages (the trace footprint), so probing any
// page below that bound never allocates.
func NewPageCacheSized(bytes, pages int) *PageCache {
	return &PageCache{
		capacity: bytes / config.PageBytes,
		entries:  make([]*PageEntry, pages),
	}
}

// Reset empties c and sizes its frame index for the given number of
// pages, leaving it as NewPageCacheSized(c's capacity in bytes, pages)
// builds it. The index keeps its storage when it holds pages, and every
// frame c held goes to the free list for later Allocates.
func (c *PageCache) Reset(pages int) {
	for c.tail != nil {
		c.release(c.tail)
	}
	c.resident = 0
	if cap(c.entries) < pages {
		c.entries = make([]*PageEntry, pages)
		return
	}
	clear(c.entries[:cap(c.entries)])
	c.entries = c.entries[:pages]
}

// Entry returns the frame for page p, or nil, without touching LRU
// order.
//
//repro:hotpath
func (c *PageCache) Entry(p memory.Page) *PageEntry {
	if int(p) < len(c.entries) {
		return c.entries[p]
	}
	return nil
}

// Touch promotes page p to MRU, returning its frame (nil if absent).
//
//repro:hotpath
func (c *PageCache) Touch(p memory.Page) *PageEntry {
	e := c.Entry(p)
	if e == nil {
		return nil
	}
	c.moveToFront(e)
	return e
}

// Full reports whether an allocation would require an eviction.
func (c *PageCache) Full() bool {
	return c.capacity != 0 && c.resident >= c.capacity
}

// EvictLRU removes and returns the least-recently-used frame, or nil if
// the cache is empty. The returned frame is valid until the next
// Allocate.
//
//repro:hotpath
func (c *PageCache) EvictLRU() *PageEntry {
	e := c.tail
	if e == nil {
		return nil
	}
	c.release(e)
	c.entries[e.Page] = nil
	c.resident--
	return e
}

// Allocate creates an empty frame for page p at MRU position. The caller
// must have made room first (Full + EvictLRU); if the cache is full,
// Allocate panics.
//
//repro:hotpath
func (c *PageCache) Allocate(p memory.Page) *PageEntry {
	if c.Entry(p) != nil {
		panic("cache: page already resident")
	}
	if c.Full() {
		panic("cache: allocate into full page cache")
	}
	if int(p) >= len(c.entries) {
		bigger := make([]*PageEntry, int(p)+1)
		copy(bigger, c.entries)
		c.entries = bigger
	}
	e := c.free
	if e != nil {
		c.free = e.next
		*e = PageEntry{Page: p}
	} else {
		e = &PageEntry{Page: p}
	}
	c.entries[p] = e
	c.resident++
	c.pushFront(e)
	return e
}

// Remove deletes page p's frame outright (used when a page migrates away
// or is gathered), returning it (nil if absent). The returned frame is
// valid until the next Allocate.
//
//repro:hotpath
func (c *PageCache) Remove(p memory.Page) *PageEntry {
	e := c.Entry(p)
	if e == nil {
		return nil
	}
	c.release(e)
	c.entries[p] = nil
	c.resident--
	return e
}

// release unlinks frame e from the LRU list onto the free list.
//
//repro:hotpath
func (c *PageCache) release(e *PageEntry) {
	c.remove(e)
	e.next = c.free
	c.free = e
}

//repro:hotpath
func (c *PageCache) pushFront(e *PageEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

//repro:hotpath
func (c *PageCache) remove(e *PageEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

//repro:hotpath
func (c *PageCache) moveToFront(e *PageEntry) {
	if c.head == e {
		return
	}
	c.remove(e)
	c.pushFront(e)
}

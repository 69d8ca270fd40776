// Package directory implements the full-map write-invalidate directory of
// the DSM protocol. Each coherence block has an entry recording its
// global state, the owning node when dirty, and the (conservative) set of
// nodes that may hold copies. Sharer sets are conservative because clean
// evictions are silent, exactly as in hardware full-map directories.
//
// An entry takes 9 bytes: the 64-bit sharer mask and one byte packing
// the state and owner, held in two parallel tables so no padding
// separates them. Reset is therefore two clears.
package directory

import (
	"fmt"

	"repro/internal/memory"
)

// State is a block's global coherence state.
type State uint8

const (
	// Idle means no node caches the block; memory at home is current.
	Idle State = iota
	// SharedState means one or more nodes hold clean copies.
	SharedState
	// ModifiedState means exactly one node holds a dirty copy.
	ModifiedState
)

// String names the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case SharedState:
		return "shared"
	case ModifiedState:
		return "modified"
	default:
		return "?"
	}
}

// Entry is one block's directory record, as Directory.Entry reads it.
type Entry struct {
	State   State
	Owner   int8   // owning node when ModifiedState, else -1
	Sharers uint64 // node bitmask, conservative superset
}

// A block's state and owner share one byte: the state in the top two
// bits, a 6-bit owner field in the low six. The protocol only ever
// writes Idle and Shared with no owner and Modified with an owner, but
// Check must be able to see every (state, owner) pair an Entry can
// name, so the byte holds all of them:
//
//	tag 0 Idle, tag 1 Shared: the field is owner+1 (0: no owner)
//	tag 2 Modified:           the field is the owner
//	tag 3:                    field 0 Idle and 1 Shared with owner 63,
//	                          field 2 Modified with no owner
//
// The zero byte is Idle with no owner, so a cleared table is a fresh
// one. The protocol methods write only the three bytes the protocol
// uses (0, shared and modifiedBy); the other pairs come from Set.
const (
	ownerBits = 6
	ownerMask = 1<<ownerBits - 1
	spareTag  = 3 // the tag of the pairs the other three cannot hold

	shared = uint8(SharedState) << ownerBits // Shared, no owner
)

// modifiedBy returns the byte of a block node holds dirty.
//
//repro:hotpath
func modifiedBy(node int) uint8 { return uint8(ModifiedState)<<ownerBits | uint8(node) }

// unpack returns the state and owner a block's byte holds.
//
//repro:hotpath
func unpack(x uint8) (State, int8) {
	tag, f := x>>ownerBits, int8(x&ownerMask)
	switch tag {
	case uint8(ModifiedState):
		return ModifiedState, f
	case spareTag:
		if State(f) == ModifiedState {
			return ModifiedState, -1
		}
		return State(f), ownerMask
	}
	return State(tag), f - 1
}

// state returns the state a block's byte holds.
//
//repro:hotpath
func state(x uint8) State {
	if tag := x >> ownerBits; tag != spareTag {
		return State(tag)
	}
	return State(x & ownerMask)
}

// pack returns the byte holding state s and owner (-1: none); it
// panics on a pair no Entry names.
func pack(s State, owner int8) uint8 {
	switch {
	case s > ModifiedState || owner < -1 || owner > ownerMask:
		panic(fmt.Sprintf("directory: no byte holds state %d with owner %d", s, owner))
	case s == ModifiedState && owner >= 0:
		return modifiedBy(int(owner))
	case s == ModifiedState:
		return spareTag<<ownerBits | uint8(ModifiedState)
	case owner == ownerMask:
		return spareTag<<ownerBits | uint8(s)
	}
	return uint8(s)<<ownerBits | uint8(owner+1)
}

// Directory holds entries for every block of the shared address space:
// a sharer bitmask and a state-and-owner byte per block, 9 bytes.
type Directory struct {
	nodes   int
	sharers []uint64
	meta    []uint8 // state and owner, packed as pack does
}

// New builds a directory covering blocks [0, numBlocks) for a cluster of
// the given node count (≤ 64).
func New(numBlocks uint64, nodes int) *Directory {
	d := &Directory{}
	d.Reset(numBlocks, nodes)
	return d
}

// Reset empties d and resizes it to numBlocks blocks of a nodes-node
// cluster, leaving it as New(numBlocks, nodes) builds it: every entry
// Idle with no owner and no sharers. The tables reuse d's storage
// when it holds numBlocks.
func (d *Directory) Reset(numBlocks uint64, nodes int) {
	if nodes <= 0 || nodes > 64 {
		panic("directory: node count must be in 1..64")
	}
	d.nodes = nodes
	d.sharers = cleared(d.sharers, numBlocks)
	d.meta = cleared(d.meta, numBlocks)
}

// cleared returns s resized to n zero entries, on s's storage when it
// holds n.
func cleared[T uint8 | uint64](s []T, n uint64) []T {
	if uint64(cap(s)) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Entry returns the block's record.
//
//repro:hotpath
func (d *Directory) Entry(b memory.Block) Entry {
	s, owner := unpack(d.meta[b])
	return Entry{State: s, Owner: owner, Sharers: d.sharers[b]}
}

// Sharers returns the block's sharer set.
//
//repro:hotpath
func (d *Directory) Sharers(b memory.Block) uint64 { return d.sharers[b] }

// ModifiedBy reports whether node holds the block's sole dirty copy.
//
//repro:hotpath
func (d *Directory) ModifiedBy(b memory.Block, node int) bool { return d.meta[b] == modifiedBy(node) }

// Set overwrites the block's record. The protocol goes through the
// methods below; Set plants arbitrary records, such as the corrupt
// ones Check reports. It panics on a state other than the three, or
// an owner outside -1..63.
func (d *Directory) Set(b memory.Block, e Entry) {
	d.meta[b] = pack(e.State, e.Owner)
	d.sharers[b] = e.Sharers
}

// AddSharer records that node holds a clean copy.
//
//repro:hotpath
func (d *Directory) AddSharer(b memory.Block, node int) {
	d.sharers[b] |= 1 << uint(node)
	if state(d.meta[b]) != SharedState {
		// An owner's copy downgrades to shared alongside the new sharer.
		d.meta[b] = shared
	}
}

// SetOwner records that node holds the sole dirty copy; all other sharers
// are dropped (the protocol has invalidated them). It returns the bitmask
// of nodes (excluding the new owner) that held copies and therefore
// received invalidations.
//
//repro:hotpath
func (d *Directory) SetOwner(b memory.Block, node int) (invalidated uint64) {
	invalidated = d.sharers[b] &^ (1 << uint(node))
	if x := d.meta[b]; x>>ownerBits == uint8(ModifiedState) && x != modifiedBy(node) {
		invalidated |= 1 << (x & ownerMask)
	}
	d.meta[b] = modifiedBy(node)
	d.sharers[b] = 1 << uint(node)
	return invalidated
}

// WriteBack records that the owner flushed its dirty copy to home memory.
// The block returns to Idle unless other (conservative) sharers remain.
//
//repro:hotpath
func (d *Directory) WriteBack(b memory.Block, node int) {
	if d.ModifiedBy(b, node) {
		d.sharers[b] &^= 1 << uint(node)
		if d.sharers[b] == 0 {
			d.meta[b] = 0
		} else {
			d.meta[b] = shared
		}
	}
}

// DropSharer removes node from the sharer set (an observed clean
// eviction; silent drops simply leave the set conservative).
//
//repro:hotpath
func (d *Directory) DropSharer(b memory.Block, node int) {
	d.sharers[b] &^= 1 << uint(node)
	if d.ModifiedBy(b, node) {
		d.meta[b] = shared
	}
	if d.sharers[b] == 0 && state(d.meta[b]) == SharedState {
		d.meta[b] = 0
	}
}

// InvalidateAll clears every copy of the block (page gathering), and
// returns the set of nodes that held copies.
//
//repro:hotpath
func (d *Directory) InvalidateAll(b memory.Block) (held uint64) {
	held = d.sharers[b]
	d.meta[b] = 0
	d.sharers[b] = 0
	return held
}

// IsDirtyRemote reports whether the block is dirty at a node other than
// the requester, returning the owner.
//
//repro:hotpath
func (d *Directory) IsDirtyRemote(b memory.Block, requester int) (owner int, dirty bool) {
	if s, o := unpack(d.meta[b]); s == ModifiedState && int(o) != requester {
		return int(o), true
	}
	return -1, false
}

// Check validates the structural invariants of every entry:
// ModifiedState implies a valid owner inside the sharer set of size one
// or more; Idle implies no owner. It returns the first violation found.
func (d *Directory) Check() error {
	for i := range d.meta {
		e := d.Entry(memory.Block(i))
		switch e.State {
		case ModifiedState:
			if e.Owner < 0 || int(e.Owner) >= d.nodes {
				return fmt.Errorf("directory: block %d modified with owner %d", i, e.Owner)
			}
			if e.Sharers&(1<<uint(e.Owner)) == 0 {
				return fmt.Errorf("directory: block %d owner %d not in sharer set %b", i, e.Owner, e.Sharers)
			}
		case Idle:
			if e.Owner != -1 {
				return fmt.Errorf("directory: block %d idle with owner %d", i, e.Owner)
			}
			if e.Sharers != 0 {
				return fmt.Errorf("directory: block %d idle with sharers %b", i, e.Sharers)
			}
		case SharedState:
			if e.Owner != -1 {
				return fmt.Errorf("directory: block %d shared with owner %d", i, e.Owner)
			}
		}
	}
	return nil
}

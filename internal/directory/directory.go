// Package directory implements the full-map write-invalidate directory of
// the DSM protocol. Each coherence block has an entry recording its
// global state, the owning node when dirty, and the (conservative) set of
// nodes that may hold copies. Sharer sets are conservative because clean
// evictions are silent, exactly as in hardware full-map directories.
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

// Entry is one block's directory record.
type Entry struct {
	State   State
	Owner   int8   // owning node when ModifiedState, else -1
	Sharers uint64 // node bitmask, conservative superset
}

// Directory holds entries for every block of the shared address space.
type Directory struct {
	nodes   int
	entries []Entry
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
// Idle with no owner and no sharers. The entries reuse d's storage
// when it holds numBlocks.
func (d *Directory) Reset(numBlocks uint64, nodes int) {
	if nodes <= 0 || nodes > 64 {
		panic("directory: node count must be in 1..64")
	}
	d.nodes = nodes
	if uint64(cap(d.entries)) < numBlocks {
		d.entries = make([]Entry, numBlocks)
	}
	d.entries = d.entries[:numBlocks]
	for i := range d.entries {
		d.entries[i] = Entry{Owner: -1}
	}
}

// Entry returns a pointer to the block's record.
func (d *Directory) Entry(b memory.Block) *Entry { return &d.entries[b] }

// AddSharer records that node holds a clean copy.
func (d *Directory) AddSharer(b memory.Block, node int) {
	e := &d.entries[b]
	e.Sharers |= 1 << uint(node)
	if e.State == Idle {
		e.State = SharedState
	}
	if e.State == ModifiedState {
		// Owner's copy downgraded to shared alongside the new sharer.
		e.State = SharedState
		e.Owner = -1
	}
}

// SetOwner records that node holds the sole dirty copy; all other sharers
// are dropped (the protocol has invalidated them). It returns the bitmask
// of nodes (excluding the new owner) that held copies and therefore
// received invalidations.
func (d *Directory) SetOwner(b memory.Block, node int) (invalidated uint64) {
	e := &d.entries[b]
	invalidated = e.Sharers &^ (1 << uint(node))
	if e.State == ModifiedState && e.Owner >= 0 && int(e.Owner) != node {
		invalidated |= 1 << uint(e.Owner)
	}
	e.State = ModifiedState
	e.Owner = int8(node)
	e.Sharers = 1 << uint(node)
	return invalidated
}

// WriteBack records that the owner flushed its dirty copy to home memory.
// The block returns to Idle unless other (conservative) sharers remain.
func (d *Directory) WriteBack(b memory.Block, node int) {
	e := &d.entries[b]
	if e.State == ModifiedState && int(e.Owner) == node {
		e.Owner = -1
		e.Sharers &^= 1 << uint(node)
		if e.Sharers == 0 {
			e.State = Idle
		} else {
			e.State = SharedState
		}
	}
}

// DropSharer removes node from the sharer set (an observed clean
// eviction; silent drops simply leave the set conservative).
func (d *Directory) DropSharer(b memory.Block, node int) {
	e := &d.entries[b]
	e.Sharers &^= 1 << uint(node)
	if e.State == ModifiedState && int(e.Owner) == node {
		e.Owner = -1
		e.State = SharedState
	}
	if e.Sharers == 0 && e.State == SharedState {
		e.State = Idle
	}
}

// InvalidateAll clears every copy of the block (page gathering), and
// returns the set of nodes that held copies.
func (d *Directory) InvalidateAll(b memory.Block) (held uint64) {
	e := &d.entries[b]
	held = e.Sharers
	e.State = Idle
	e.Owner = -1
	e.Sharers = 0
	return held
}

// IsDirtyRemote reports whether the block is dirty at a node other than
// the requester, returning the owner.
func (d *Directory) IsDirtyRemote(b memory.Block, requester int) (owner int, dirty bool) {
	e := &d.entries[b]
	if e.State == ModifiedState && int(e.Owner) != requester {
		return int(e.Owner), true
	}
	return -1, false
}

// SharerCount returns the number of nodes in the sharer set.
func (d *Directory) SharerCount(b memory.Block) int {
	x := d.entries[b].Sharers
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Check validates the structural invariants of every entry:
// ModifiedState implies a valid owner inside the sharer set of size one
// or more; Idle implies no owner. It returns the first violation found.
func (d *Directory) Check() error {
	for i := range d.entries {
		e := &d.entries[i]
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

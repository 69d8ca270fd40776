// Package stats collects simulation metrics: misses broken down by class,
// page operations by kind, network traffic, synchronization time, and
// execution time, with per-node and cluster-wide views plus the
// normalization helpers the paper's figures use.
package stats

import (
	"fmt"
	"strings"
)

// MissClass classifies an L1/remote miss the way the paper's counters
// need it.
type MissClass int

const (
	// Cold is the first reference to a block by a node.
	Cold MissClass = iota
	// Coherence misses re-fetch a block that was invalidated by another
	// processor's write.
	Coherence
	// CapacityConflict misses re-fetch a block that was evicted for
	// space reasons; these are the misses both techniques target.
	CapacityConflict

	numMissClasses
)

// NumMissClasses is the number of miss classes, for packages that build
// per-class tables (internal/telemetry's windowed series).
const NumMissClasses = int(numMissClasses)

// String returns the miss-class name.
func (c MissClass) String() string {
	switch c {
	case Cold:
		return "cold"
	case Coherence:
		return "coherence"
	case CapacityConflict:
		return "capacity/conflict"
	default:
		return fmt.Sprintf("MissClass(%d)", int(c))
	}
}

// PageOp classifies a page operation.
type PageOp int

const (
	// Migration moves a page to a new home node.
	Migration PageOp = iota
	// Replication creates a read-only copy of a page on a sharer.
	Replication
	// Collapse switches a replicated page back to a single read-write
	// home copy after a write fault.
	Collapse
	// Relocation remaps a CC-NUMA page into a node's S-COMA page cache.
	Relocation
	// Replacement evicts a page from a full page cache.
	Replacement

	numPageOps
)

// NumPageOps is the number of page-operation kinds, for packages that
// build per-kind tables (internal/telemetry's windowed series).
const NumPageOps = int(numPageOps)

// String returns the page-operation name.
func (p PageOp) String() string {
	switch p {
	case Migration:
		return "migration"
	case Replication:
		return "replication"
	case Collapse:
		return "collapse"
	case Relocation:
		return "relocation"
	case Replacement:
		return "replacement"
	default:
		return fmt.Sprintf("PageOp(%d)", int(p))
	}
}

// Node accumulates the per-node counters.
type Node struct {
	// RemoteMisses counts remote misses by class: requests the node had
	// to send off-node (or, for R-NUMA, satisfy from its page cache
	// after a relocation — those count as page-cache hits instead).
	RemoteMisses [numMissClasses]int64

	// LocalMisses counts L1 misses satisfied on the node, by class.
	LocalMisses [numMissClasses]int64

	// BlockCacheHits counts remote-data fills satisfied by the node's
	// block cache.
	BlockCacheHits int64

	// PageCacheHits counts remote-data fills satisfied by the node's
	// S-COMA page cache.
	PageCacheHits int64

	// PageOps counts page operations initiated by (or on behalf of)
	// this node, by kind.
	PageOps [numPageOps]int64

	// Upgrades counts remote write-upgrade transactions (exclusivity
	// requests that move no data).
	Upgrades int64

	// PageFaults counts soft page faults taken to map remote pages.
	PageFaults int64

	// TrafficBytes is the number of bytes this node put on the network,
	// including protocol headers, data blocks and page moves.
	TrafficBytes int64

	// StallCycles is time CPUs on this node spent stalled on memory.
	StallCycles int64

	// SyncCycles is time CPUs on this node spent in barriers and locks.
	SyncCycles int64

	// PageOpCycles is time spent performing page operations.
	PageOpCycles int64
}

// Sim accumulates a full run.
type Sim struct {
	// System and App label the run.
	System string
	App    string

	// ExecCycles is the simulated execution time: the maximum terminal
	// clock over all processors.
	ExecCycles int64

	Nodes []Node

	// Net is the interconnect view of the run: per-link traffic, hot
	// links and bisection bytes. It is the NetStats the run's fabric
	// counted into, published by the dsm machine at the end of
	// execution.
	Net *NetStats
}

// New returns a Sim with the given number of node slots.
func New(system, app string, nodes int) *Sim {
	return &Sim{System: system, App: app, Nodes: make([]Node, nodes)}
}

// TotalRemoteMisses sums remote misses over all nodes and classes.
func (s *Sim) TotalRemoteMisses() int64 {
	var t int64
	for i := range s.Nodes {
		for _, v := range s.Nodes[i].RemoteMisses {
			t += v
		}
	}
	return t
}

// RemoteMissesByClass sums remote misses of one class over all nodes.
func (s *Sim) RemoteMissesByClass(c MissClass) int64 {
	var t int64
	for i := range s.Nodes {
		t += s.Nodes[i].RemoteMisses[c]
	}
	return t
}

// PageOpsByKind sums page operations of one kind over all nodes.
func (s *Sim) PageOpsByKind(p PageOp) int64 {
	var t int64
	for i := range s.Nodes {
		t += s.Nodes[i].PageOps[p]
	}
	return t
}

// PerNodeRemoteMisses returns average remote misses per node.
func (s *Sim) PerNodeRemoteMisses() float64 {
	if len(s.Nodes) == 0 {
		return 0
	}
	return float64(s.TotalRemoteMisses()) / float64(len(s.Nodes))
}

// PerNodeRemoteMissesByClass returns average per-node remote misses of a
// class.
func (s *Sim) PerNodeRemoteMissesByClass(c MissClass) float64 {
	if len(s.Nodes) == 0 {
		return 0
	}
	return float64(s.RemoteMissesByClass(c)) / float64(len(s.Nodes))
}

// PerNodePageOps returns average per-node page operations of a kind.
func (s *Sim) PerNodePageOps(p PageOp) float64 {
	if len(s.Nodes) == 0 {
		return 0
	}
	return float64(s.PageOpsByKind(p)) / float64(len(s.Nodes))
}

// TotalTrafficBytes sums network traffic over all nodes.
func (s *Sim) TotalTrafficBytes() int64 {
	var t int64
	for i := range s.Nodes {
		t += s.Nodes[i].TrafficBytes
	}
	return t
}

// Normalized returns s.ExecCycles / base.ExecCycles.
func (s *Sim) Normalized(base *Sim) float64 {
	if base == nil || base.ExecCycles == 0 {
		return 0
	}
	return float64(s.ExecCycles) / float64(base.ExecCycles)
}

// Summary renders a human-readable block of the headline counters.
func (s *Sim) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s\n", s.App, s.System)
	fmt.Fprintf(&b, "  execution time: %d cycles\n", s.ExecCycles)
	fmt.Fprintf(&b, "  remote misses:  %d (cold %d, coherence %d, cap/conf %d)\n",
		s.TotalRemoteMisses(), s.RemoteMissesByClass(Cold),
		s.RemoteMissesByClass(Coherence), s.RemoteMissesByClass(CapacityConflict))
	fmt.Fprintf(&b, "  page ops:       mig %d, rep %d, collapse %d, reloc %d, repl %d\n",
		s.PageOpsByKind(Migration), s.PageOpsByKind(Replication),
		s.PageOpsByKind(Collapse), s.PageOpsByKind(Relocation),
		s.PageOpsByKind(Replacement))
	fmt.Fprintf(&b, "  traffic:        %d bytes\n", s.TotalTrafficBytes())
	return b.String()
}

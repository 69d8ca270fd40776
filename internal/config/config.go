// Package config holds every architectural and protocol parameter of the
// simulated DSM cluster: cluster geometry, cache organization, the timing
// model of Table 3 of the paper, and the migration/replication and R-NUMA
// thresholds used across the experiments.
//
// All latencies and occupancies are expressed in 600-MHz processor cycles.
package config

import "fmt"

// Cluster geometry. These match the methodology section of the paper:
// eight 4-way SMP nodes, 64-byte coherence blocks and 4-KB pages.
const (
	DefaultNodes       = 8
	DefaultCPUsPerNode = 4

	BlockBytes = 64
	PageBytes  = 4096
	// BlocksPerPage is the number of coherence blocks in one page.
	BlocksPerPage = PageBytes / BlockBytes

	// BlockShift and PageShift convert byte addresses to block and page
	// numbers.
	BlockShift = 6
	PageShift  = 12
)

// Cache geometry defaults.
const (
	// L1Bytes is the per-processor cache size. The paper conservatively
	// assumes 16-KB direct-mapped processor caches to compensate for the
	// scaled-down SPLASH-2 data sets.
	L1Bytes = 16 * 1024

	// BlockCacheBytes is the per-node CC-NUMA block (cluster) cache,
	// sized to the sum of the four processor caches so that inclusion is
	// benign.
	BlockCacheBytes = 4 * L1Bytes

	// BlockCacheWays is the block-cache associativity. A modest
	// associativity mitigates inclusion-induced L1 invalidations, which
	// is the stated intent of sizing the cache to the sum of the L1s.
	BlockCacheWays = 4

	// PageCacheBytes is the S-COMA page cache of the base R-NUMA system:
	// a factor of 40 larger than the block cache, trading cheap DRAM for
	// SRAM as in the paper (2.4 MB).
	PageCacheBytes = 40 * BlockCacheBytes
)

// Timing is the full timing model. The zero value is not useful; use
// Default, Slow, or a modified copy.
type Timing struct {
	// NetworkLatency is the one-way point-to-point network latency.
	NetworkLatency int64

	// LocalMiss is the latency of an L1 miss satisfied on the node: by
	// local memory, by another processor cache, by the block cache, or
	// by the S-COMA page cache.
	LocalMiss int64

	// RemoteMiss is the round-trip latency of a clean 2-hop remote miss,
	// excluding queuing delays, which the engine adds at the bus and the
	// network interfaces.
	RemoteMiss int64

	// DirtyRemoteExtra is added when the home must forward the request
	// to a third-party owner (3-hop miss).
	DirtyRemoteExtra int64

	// SoftTrap is the cost of entering the operating system: page
	// faults, R-NUMA relocation interrupts, migration/replication traps.
	SoftTrap int64

	// TLBShootdown is the cost of invalidating the TLBs on one node.
	TLBShootdown int64

	// PageOpBase and PageOpPerBlock give the page allocation/replacement
	// and R-NUMA relocation cost: base (trap + unmap) plus a per-flushed-
	// block term. With 64 blocks this spans the paper's 3000~11500 range.
	PageOpBase     int64
	PageOpPerBlock int64

	// GatherBase and GatherPerBlock give the page invalidation and data
	// gathering cost of migration/replication (3000~11500).
	GatherBase     int64
	GatherPerBlock int64

	// CopyBase and CopyPerBlock give the page copy cost (8000~21800).
	CopyBase     int64
	CopyPerBlock int64

	// BusOccupancy is how long one block transaction holds the
	// split-transaction memory bus (100 MHz, 6:1 clock ratio).
	BusOccupancy int64

	// NIOccupancy is how long one message holds a network interface.
	NIOccupancy int64

	// HomeOccupancy is how long the home cluster device is busy per
	// protocol request (directory access and DRAM read).
	HomeOccupancy int64
}

// Thresholds gathers the page-selection policy parameters.
type Thresholds struct {
	// MigRepThreshold is the per-page miss-counter threshold that
	// triggers a migration or replication at the home.
	MigRepThreshold int

	// MigRepResetInterval is the per-page miss count after which the
	// page's counters are cleared.
	MigRepResetInterval int

	// RNUMAThreshold is the per-page refetch-counter threshold after
	// which a cacher relocates the page into its page cache.
	RNUMAThreshold int
}

// Default returns the base (fast hardware support) timing model of
// Table 3.
func Default() Timing {
	return Timing{
		NetworkLatency:   80,
		LocalMiss:        104,
		RemoteMiss:       418,
		DirtyRemoteExtra: 160,
		SoftTrap:         3000,
		TLBShootdown:     300,
		PageOpBase:       3000,
		PageOpPerBlock:   128, // 3000 + 300 + 64*128 ≈ 11500 upper bound
		GatherBase:       3000,
		GatherPerBlock:   128,
		CopyBase:         8000,
		CopyPerBlock:     215, // 8000 + 64*215 ≈ 21800 upper bound
		BusOccupancy:     24,
		NIOccupancy:      20,
		HomeOccupancy:    30,
	}
}

// Slow returns the slow page-operation model of Section 6.2: soft traps
// and TLB shootdowns cost ten times more, and each page copy pays an
// additional 6000-cycle penalty. Block-level timing is unchanged.
func Slow() Timing {
	t := Default()
	t.SoftTrap = 30000
	t.TLBShootdown = 3000
	t.CopyBase += 6000
	return t
}

// ScaleNetwork returns a copy of t with the network latency and the
// remote-miss round trip scaled by factor, holding local latency fixed.
// factor=4 yields the remote:local ratio of 16 studied in Section 6.3.
func (t Timing) ScaleNetwork(factor int64) Timing {
	s := t
	s.NetworkLatency *= factor
	// The round trip contains two network traversals; the remainder is
	// node-local overhead that does not scale with the wire.
	fixed := t.RemoteMiss - 2*t.NetworkLatency
	s.RemoteMiss = fixed + 2*s.NetworkLatency
	s.DirtyRemoteExtra = t.DirtyRemoteExtra * factor
	return s
}

// PaperThresholds returns the paper's fast-system policy parameters: a
// migration/replication threshold of 800 misses with a 32000-miss reset
// interval, and an R-NUMA switching threshold of 32 misses. These were
// tuned for full-size SPLASH-2 runs that incur roughly eight times more
// misses per page than our scaled inputs.
func PaperThresholds() Thresholds {
	return Thresholds{
		MigRepThreshold:     800,
		MigRepResetInterval: 32000,
		RNUMAThreshold:      32,
	}
}

// DefaultThresholds returns the policy parameters used by the
// experiments: the paper's migration/replication threshold and reset
// interval scaled by the same ~8x factor as the application inputs (the
// paper notes the values were "selected so as to optimize performance
// over all benchmarks", i.e. they are workload-scale-dependent), and the
// paper's R-NUMA threshold of 32 misses, which is already small relative
// to per-page miss counts and needs no rescaling.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MigRepThreshold:     100,
		MigRepResetInterval: 4000,
		RNUMAThreshold:      32,
	}
}

// SlowThresholds returns the slow-system policy parameters of Section
// 6.2 — the paper raises the migration/replication threshold by 1.5x
// (800 to 1200) and doubles the R-NUMA threshold (32 to 64) to keep page
// operation frequency from thrashing; we apply the same ratios to the
// scaled defaults.
func SlowThresholds() Thresholds {
	t := DefaultThresholds()
	t.MigRepThreshold = t.MigRepThreshold * 3 / 2
	t.RNUMAThreshold *= 2
	return t
}

// Interconnect topology names accepted by Network.Topology.
const (
	TopoCrossbar = "crossbar"
	TopoRing     = "ring"
	TopoMesh     = "mesh"
	TopoFatTree  = "fattree"
)

// DefaultFatTreeArity is the number of nodes per fat-tree leaf switch,
// shared by Validate and the fabric constructor so they accept exactly
// the same configurations. (One leaf per SMP pair of the paper's 8-node
// cluster would be 2; 4 gives two leaves under one root.)
const DefaultFatTreeArity = 4

// Network selects the interconnect fabric model built by
// internal/interconnect. Every link costs Timing.NetworkLatency per hop
// and has no bandwidth limit. The zero value is the ideal crossbar,
// which reproduces the paper's original single-latency network exactly.
type Network struct {
	// Topology names the fabric graph: TopoCrossbar (every node pair
	// one dedicated hop), TopoRing (bidirectional ring, shortest-path
	// routing), TopoMesh (2D mesh, dimension-order routing) or
	// TopoFatTree (two-level tree of DefaultFatTreeArity-node leaves,
	// up-down routing). The mesh takes the most nearly square shape of
	// the node count. Empty selects the crossbar.
	Topology string
}

// Kind returns the effective topology name, resolving the empty default
// to the crossbar.
func (n Network) Kind() string {
	if n.Topology == "" {
		return TopoCrossbar
	}
	return n.Topology
}

// Validate reports whether the topology is usable for a cluster of the
// given node count.
func (n Network) Validate(nodes int) error {
	switch n.Kind() {
	case TopoCrossbar, TopoRing, TopoMesh:
	case TopoFatTree:
		if nodes%DefaultFatTreeArity != 0 {
			return fmt.Errorf("config: fat-tree arity %d does not divide %d nodes", DefaultFatTreeArity, nodes)
		}
	default:
		return fmt.Errorf("config: unknown topology %q", n.Topology)
	}
	return nil
}

// Cluster describes the simulated machine shape.
type Cluster struct {
	Nodes       int
	CPUsPerNode int

	// Net selects the interconnect fabric; the zero value is the ideal
	// crossbar of the original paper.
	Net Network
}

// DefaultCluster returns the 8×4 cluster of the paper.
func DefaultCluster() Cluster {
	return Cluster{Nodes: DefaultNodes, CPUsPerNode: DefaultCPUsPerNode}
}

// MaxCPUsPerNode is the most CPUs a node may have: the machine counts a
// node's L1 copies of a block in a 6-bit field.
const MaxCPUsPerNode = 63

// TotalCPUs returns the number of processors in the cluster.
func (c Cluster) TotalCPUs() int { return c.Nodes * c.CPUsPerNode }

// Validate reports whether the cluster shape is usable.
func (c Cluster) Validate() error {
	if c.Nodes <= 0 || c.CPUsPerNode <= 0 {
		return fmt.Errorf("config: invalid cluster %dx%d", c.Nodes, c.CPUsPerNode)
	}
	if c.Nodes > 64 {
		return fmt.Errorf("config: node count %d exceeds the 64-node sharer-set limit", c.Nodes)
	}
	if c.CPUsPerNode > MaxCPUsPerNode {
		return fmt.Errorf("config: %d CPUs per node exceed the %d-CPU limit of the L1-copy count", c.CPUsPerNode, MaxCPUsPerNode)
	}
	return c.Net.Validate(c.Nodes)
}

// PageOpCost returns the cost of a page allocation/replacement or R-NUMA
// relocation that flushed the given number of blocks, including the soft
// trap and the local TLB shootdown.
func (t Timing) PageOpCost(flushedBlocks int) int64 {
	return t.PageOpBase + t.TLBShootdown + int64(flushedBlocks)*t.PageOpPerBlock
}

// GatherCost returns the page invalidation and data gathering cost of a
// migration/replication over the given number of flushed blocks. The
// base system has hardware page-flush support, so cachers do not trap.
func (t Timing) GatherCost(flushedBlocks int) int64 {
	return t.GatherBase + t.TLBShootdown + int64(flushedBlocks)*t.GatherPerBlock
}

// CopyCost returns the page copy cost over the given number of moved
// blocks.
func (t Timing) CopyCost(movedBlocks int) int64 {
	return t.CopyBase + int64(movedBlocks)*t.CopyPerBlock
}

// Package dsm implements the simulated DSM cluster machines the paper
// compares: CC-NUMA with a finite or infinite (perfect) block cache,
// CC-NUMA with page migration and/or replication (MigRep), R-NUMA with a
// finite, halved or infinite S-COMA page cache, and the R-NUMA+MigRep
// integration.
//
// A memory system is plain data:
//
//   - Spec is a comparable value: cache sizes and the flags that
//     switch each mechanism on (migration, replication, R-NUMA
//     relocation and its delay, static S-COMA placement, the
//     contention gate). Spec.Validate rejects contradictory
//     configurations at construction time. The fault paths read the
//     flags at the seams where the paper's systems differ and run the
//     matching decisions (policy.go): the MigRep thresholds, R-NUMA
//     refetch selection, static S-COMA placement.
//   - The registry (Register / Lookup / Systems) maps stable system
//     names — "ccnuma", "migrep", "rnuma-half-migrep", ... — to Spec
//     constructors, mirroring how internal/apps registers workloads.
//     CLIs and the harness resolve systems exclusively by these names.
//
// A single Machine executes a dependence-preserving application trace
// under a configurable timing model on the Spec's hardware. Every
// protocol message — fills, invalidations, writebacks, page moves and
// replica grants — is routed over the internal/interconnect fabric
// selected by the cluster's Net configuration, charging per-link
// traffic counters and, on multi-hop fabrics, the extra hop latency.
//
// Each page's protocol state is one record in Machine.pages: its home,
// the node bitmasks of its mappings and read-only replicas, its
// page-busy horizon and its miss counters. A node's S-COMA frame for a
// page is found in that node's page cache, not in the record.
//
// Page operations — soft page faults included — run through a small
// pageop layer that carries each operation's explicit event time, so
// their cost, traffic and serialization accounting cannot drift apart.
// Each counter the telemetry collector mirrors has one charging
// function that also charges the collector at the event's time:
// Machine.traffic for TrafficBytes, Machine.miss for the miss counts,
// pageOp.count for the page-op counts. A machine in audit mode
// (EnableAudit, or RunOptions.Audit) checks every resource acquire and
// fabric injection against the dispatched event's time as it runs
// (audit.go), and the internal/audit conservation checks afterwards.
//
// Machine.Execute replays the trace on one clock-keyed event heap,
// dispatching ops in (Clock, CPU-ID) order.
//
// A machine's largest tables — the directory, the page records, one
// byte per node and block packing the node's L1-copy count with its
// miss-history flags, R-NUMA's refetch counters and page caches, every
// L1 and every block cache — live on a Tables set, with the immutable
// fabric graphs. The directory and per-node bytes take 9 plus one
// byte per node for each block: 17 bytes on the paper's 8x4 cluster.
// The caller of RunWithOptions or RunBaseline owns the set it passes in
// RunOptions.Tables and may pass it to one run after another, which
// then share its storage: each machine resizes the tables to its
// footprint and resets them to a fresh machine's state, so its
// statistics are the same as on fresh tables. A nil RunOptions.Tables
// allocates fresh tables for the run, as NewMachine always does. The
// harness keeps one set per running simulation of a run list.
//
// RunBaseline is the only definition of the normalization baseline
// (perfect CC-NUMA, base timing, default thresholds, ideal crossbar)
// that every normalized execution time divides by.
package dsm

import (
	"fmt"

	"repro/internal/config"
)

// Spec selects the remote-caching hardware and page-relocation policies
// of one simulated system. It holds no func, slice or map field, so
// specs compare with ==.
type Spec struct {
	// Name labels the system in reports ("CC-NUMA", "R-NUMA", ...).
	Name string

	// BlockCacheBytes sizes the per-node CC-NUMA block cache. Zero
	// means no block cache (R-NUMA systems omit it).
	BlockCacheBytes int

	// InfiniteBlockCache builds the perfect CC-NUMA baseline.
	InfiniteBlockCache bool

	// PageCacheBytes sizes the per-node S-COMA page cache; meaningful
	// only when RNUMA is set. Zero with RNUMA set means unbounded.
	PageCacheBytes int

	// RNUMA enables reactive page relocation into the page cache.
	RNUMA bool

	// Migration enables home-driven page migration.
	Migration bool

	// Replication enables home-driven page replication.
	Replication bool

	// RelocDelayMisses, when non-zero, forbids R-NUMA relocation of a
	// page until it has accumulated this many remote misses, giving
	// migration/replication first shot at it (Section 6.4).
	RelocDelayMisses int

	// AlwaysSCOMA statically maps every remote page into the page cache
	// on first touch instead of reacting to refetch counters — the
	// S3.mp/ASCOMA-style policy the paper's related work contrasts
	// R-NUMA against. Requires RNUMA.
	AlwaysSCOMA bool

	// ContentionGate defers every page move migration/replication
	// requests while the move's route is the fabric's hot spot (see
	// ContentionMigRep). Without Migration or Replication it gates
	// nothing.
	ContentionGate bool
}

// Validate rejects contradictory or meaningless configurations before
// a Machine is built from them. NewMachine calls it, so a bad Spec
// fails loudly instead of silently simulating something else.
func (s Spec) Validate() error {
	if s.BlockCacheBytes < 0 {
		return fmt.Errorf("dsm: spec %q: negative block cache size %d", s.Name, s.BlockCacheBytes)
	}
	if s.PageCacheBytes < 0 {
		return fmt.Errorf("dsm: spec %q: negative page cache size %d", s.Name, s.PageCacheBytes)
	}
	if s.PageCacheBytes > 0 && !s.RNUMA {
		return fmt.Errorf("dsm: spec %q: PageCacheBytes set without RNUMA (no S-COMA hardware to use it)", s.Name)
	}
	if s.AlwaysSCOMA && !s.RNUMA {
		return fmt.Errorf("dsm: spec %q: AlwaysSCOMA requires RNUMA (the page cache it maps into)", s.Name)
	}
	if s.RelocDelayMisses < 0 {
		return fmt.Errorf("dsm: spec %q: negative relocation delay %d", s.Name, s.RelocDelayMisses)
	}
	if s.RelocDelayMisses > 0 && !s.RNUMA {
		return fmt.Errorf("dsm: spec %q: RelocDelayMisses delays R-NUMA relocation but RNUMA is off", s.Name)
	}
	if s.RelocDelayMisses > 0 && !s.MigRep() {
		return fmt.Errorf("dsm: spec %q: RelocDelayMisses gives migration/replication first shot at a page, but neither is enabled", s.Name)
	}
	return nil
}

// MigRep reports whether either page migration or replication is on.
func (s Spec) MigRep() bool { return s.Migration || s.Replication }

// PerfectCCNUMA is the normalization baseline: CC-NUMA with an infinite
// block cache.
func PerfectCCNUMA() Spec {
	return Spec{Name: "Perfect", InfiniteBlockCache: true}
}

// CCNUMA is the base system: a 64-KB 4-way inclusive block cache.
func CCNUMA() Spec {
	return Spec{Name: "CC-NUMA", BlockCacheBytes: config.BlockCacheBytes}
}

// Rep is CC-NUMA with page replication only.
func Rep() Spec {
	s := CCNUMA()
	s.Name = "Rep"
	s.Replication = true
	return s
}

// Mig is CC-NUMA with page migration only.
func Mig() Spec {
	s := CCNUMA()
	s.Name = "Mig"
	s.Migration = true
	return s
}

// MigRep is CC-NUMA with both page migration and replication.
func MigRep() Spec {
	s := CCNUMA()
	s.Name = "MigRep"
	s.Migration = true
	s.Replication = true
	return s
}

// RNUMA is the base R-NUMA system: no block cache, a 2.4-MB page cache.
func RNUMA() Spec {
	return Spec{Name: "R-NUMA", RNUMA: true, PageCacheBytes: config.PageCacheBytes}
}

// RNUMAInf is R-NUMA with an unbounded page cache.
func RNUMAInf() Spec {
	return Spec{Name: "R-NUMA-Inf", RNUMA: true}
}

// RNUMAHalf is R-NUMA with half the base page cache (1.2 MB).
func RNUMAHalf() Spec {
	return Spec{Name: "R-NUMA-1/2", RNUMA: true, PageCacheBytes: config.PageCacheBytes / 2}
}

// RNUMAHalfMigRep integrates page migration/replication with the halved
// R-NUMA, delaying relocation per Section 6.4.
func RNUMAHalfMigRep(delayMisses int) Spec {
	s := RNUMAHalf()
	s.Name = "R-NUMA-1/2+MigRep"
	s.Migration = true
	s.Replication = true
	s.RelocDelayMisses = delayMisses
	return s
}

// SCOMA is the static fine-grain caching ablation: every remote page is
// placed in the page cache on first touch, with no reactive selection.
// It shows why R-NUMA's hybrid beats an S-COMA-only design under page
// cache pressure (the trade-off the original R-NUMA paper established
// and this paper's related-work section revisits via S3.mp and ASCOMA).
func SCOMA() Spec {
	return Spec{
		Name:           "S-COMA",
		RNUMA:          true,
		PageCacheBytes: config.PageCacheBytes,
		AlwaysSCOMA:    true,
	}
}

// AllBaseSystems returns the systems of Figure 5 in presentation order.
func AllBaseSystems() []Spec {
	return []Spec{CCNUMA(), Rep(), Mig(), MigRep(), RNUMA(), RNUMAInf()}
}

// Package dsm implements the simulated DSM cluster machines the paper
// compares: CC-NUMA with a finite or infinite (perfect) block cache,
// CC-NUMA with page migration and/or replication (MigRep), R-NUMA with a
// finite, halved or infinite S-COMA page cache, and the R-NUMA+MigRep
// integration.
//
// A memory system is described in three layers:
//
//   - Spec is the hardware configuration: cache sizes, which counter
//     banks exist, which policy family is wired in. Spec.Validate
//     rejects contradictory configurations at construction time.
//   - Policy is the decision layer: the hooks (OnRemoteMiss,
//     OnRemoteUpgrade, OnHomeMiss, OnPageMapped, ChooseVictim) the
//     machine calls at the seams where the paper's systems differ.
//     Spec.NewPolicy installs a custom Policy; nil derives the default
//     composition (MigRep thresholds, R-NUMA refetch selection, static
//     S-COMA placement) from the Spec's flags.
//   - The registry (Register / Lookup / Systems) maps stable system
//     names — "ccnuma", "migrep", "rnuma-half-migrep", ... — to Spec
//     constructors, mirroring how internal/apps registers workloads.
//     CLIs and the harness resolve systems exclusively by these names,
//     so a new system (see ContentionMigRep) plugs in end to end
//     without touching the fault-handling core.
//
// A single Machine executes a dependence-preserving application trace
// under a configurable timing model, applying the Spec's hardware and
// the Policy's decisions. Every protocol message — fills,
// invalidations, writebacks, page moves and replica grants — is routed
// over the internal/interconnect fabric selected by the cluster's Net
// configuration, charging per-link traffic counters and, on multi-hop
// or bandwidth-limited fabrics, hop latency and link queuing.
//
// Page operations run through a small pageop layer that carries each
// operation's explicit event time, so their cost, traffic and
// serialization accounting cannot drift apart; a machine in audit mode
// (EnableAudit, or RunOptions.Audit) checks event-time discipline as it
// runs and the internal/audit conservation checks afterwards.
//
// Machine.Execute replays the trace on one clock-keyed event heap,
// dispatching ops in (Clock, CPU-ID) order.
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
// of one simulated system.
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

	// NewPolicy, when non-nil, builds the machine's decision layer
	// instead of the default Spec-derived composition. It is how a
	// registered system installs a custom Policy (see
	// ContentionMigRep) without any change to the protocol core.
	NewPolicy func(Spec) Policy
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

// HasBlockCache reports whether the system includes a block cache.
func (s Spec) HasBlockCache() bool {
	return s.InfiniteBlockCache || s.BlockCacheBytes > 0
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

// Package audit provides the end-of-run conservation and consistency
// checks of the simulator's self-auditing mode.
//
// A simulated DSM run maintains the same quantities in several places:
// every node counts the bytes it puts on the network (stats.Node
// .TrafficBytes), the fabric counts the bytes injected per ordered node
// pair and the bytes carried per link into the stats.NetStats the run
// publishes (stats.Sim.Net), and the directory tracks which caches hold
// which blocks. These views are redundant by construction, which makes
// them a free cross-check: if a protocol path charges a node counter
// but skips the fabric (or vice versa), injects a message in the
// simulated past, or leaves the directory disagreeing with the caches,
// the books stop balancing.
//
// Check runs over a finished machine and verifies:
//
//   - event-time discipline: no out-of-order scheduler dispatch, no
//     page-busy horizon regression, and no resource acquire or fabric
//     injection before the time of the event being dispatched, the
//     machine's one floor (collected online while the machine runs in
//     audit mode — see dsm.Machine.EnableAudit);
//   - traffic conservation, read from the published NetStats: the
//     summed per-node TrafficBytes equal the per-pair injected bytes
//     plus node-local messages, and the per-link byte totals equal the
//     per-pair bytes weighted by each pair's route hop count in the
//     fabric's topology;
//   - counter sanity: no negative traffic, stall, sync or page-op
//     counters;
//   - directory/cache agreement and the page-record invariants, via
//     the machine's Verify.
//
// The harness runs these checks on every simulation when Options.Audit
// is set (the -audit flag of cmd/experiments and cmd/dsmsim), and the
// test suite keeps audit mode on for every harness experiment, so a
// regression in any accounting path fails loudly instead of skewing
// the paper's traffic tables silently.
package audit

import (
	"fmt"
	"strings"

	"repro/internal/interconnect"
	"repro/internal/stats"
)

// Machine is the view of a finished simulation the checks need; it is
// satisfied by *dsm.Machine.
type Machine interface {
	// Stats returns the run's statistics.
	Stats() *stats.Sim
	// Fabric returns the interconnect the run routed messages over;
	// the checks read its topology's routes.
	Fabric() *interconnect.Fabric
	// Verify checks directory invariants, directory/cache agreement
	// and the page records.
	Verify() error
	// AuditViolations returns event-time violations the machine
	// recorded while executing in audit mode.
	AuditViolations() []string
}

// Check runs every end-of-run audit over m and returns an error
// describing all violations, or nil if the books balance.
func Check(m Machine) error {
	var errs []string
	s := m.Stats()

	// Event-time discipline, collected online during the run.
	errs = append(errs, m.AuditViolations()...)

	// Traffic conservation against the fabric's per-pair ground truth.
	if net := s.Net; net == nil {
		errs = append(errs, "traffic conservation: the run published no NetStats")
	} else {
		topo := m.Fabric().Topology()
		var pair, hopWeighted int64
		for src, row := range net.Pairs {
			for dst, b := range row {
				pair += b
				hopWeighted += b * int64(len(topo.Route(src, dst)))
			}
		}
		if injected, counted := pair+net.LocalBytes, s.TotalTrafficBytes(); injected != counted {
			errs = append(errs, fmt.Sprintf(
				"traffic conservation: fabric injected %d bytes (pairs %d + local %d) but node counters total %d",
				injected, pair, net.LocalBytes, counted))
		}
		if got := net.TotalLinkBytes(); got != hopWeighted {
			errs = append(errs, fmt.Sprintf(
				"link conservation: links carried %d bytes, hop-weighted pair injection is %d",
				got, hopWeighted))
		}
	}

	// Counter sanity: accumulators only ever add nonnegative amounts.
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.TrafficBytes < 0 || n.StallCycles < 0 || n.SyncCycles < 0 || n.PageOpCycles < 0 {
			errs = append(errs, fmt.Sprintf(
				"node %d: negative counter (traffic %d, stall %d, sync %d, pageop %d)",
				i, n.TrafficBytes, n.StallCycles, n.SyncCycles, n.PageOpCycles))
		}
	}

	// Directory/cache agreement.
	if err := m.Verify(); err != nil {
		errs = append(errs, err.Error())
	}

	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d violation(s):\n  %s", len(errs), strings.Join(errs, "\n  "))
}

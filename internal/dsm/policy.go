package dsm

import (
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/stats"
)

// The page-relocation decision layer: the software (and home-side
// monitoring firmware) that decides when a page migrates, replicates or
// relocates into the S-COMA page cache. The Spec's flags select which
// decisions run, and the fault paths in access.go call these methods
// at the seams where the paper's systems differ. The mechanisms they
// invoke — migrate, replicate, grantReplica, relocate — live in
// migrep.go and rnuma.go.
//
// Decisions run after the triggering access has completed and its
// state changes are applied, so a page operation they start may gather
// the very copy that triggered it. Any operation started is charged to
// the requesting CPU c, which is the one waiting on the page.

// onRemoteMiss runs after node n completed a remote fetch on page p
// with miss class cls: it feeds the home-side migration/replication
// counters, then the cacher-side R-NUMA refetch counters.
func (m *Machine) onRemoteMiss(c *engine.CPU, n int, p memory.Page, cls stats.MissClass, write bool) {
	if m.spec.MigRep() {
		m.pokeMigRep(c, n, p, write)
	}
	if m.spec.RNUMA {
		m.rnumaMiss(c, n, p, cls)
	}
}

// onRemoteUpgrade runs after node n completed a remote write upgrade on
// page p (an exclusivity request that moved no data).
func (m *Machine) onRemoteUpgrade(c *engine.CPU, n int, p memory.Page) {
	if m.spec.MigRep() && m.pages[p].home != n {
		m.pokeMigRep(c, n, p, true)
	}
}

// pokeMigRep runs the home-side page reference monitoring of Section
// 3.1: it records one request on page p issued by node n in the
// per-page per-node miss counters, applies the periodic reset, and
// invokes page replication or migration when the thresholds fire.
func (m *Machine) pokeMigRep(c *engine.CPU, n int, p memory.Page, write bool) {
	pg := &m.pages[p]
	h := pg.home
	cnt := m.migCounter(p)
	cnt.sinceReset++
	// The reference that lands exactly on the reset interval still
	// reaches the threshold checks below: the counters clear only after
	// it has been considered. (Resetting first swallowed every
	// interval's final reference, so a page whose counter crossed the
	// threshold on that reference never triggered an operation.) When
	// the contention gate defers a move, the reset is skipped too — the
	// pending decision survives to re-trigger on a later miss, and the
	// counters clear on the next ungated reference instead.
	boundary := int(cnt.sinceReset) >= m.th.MigRepResetInterval
	if n == h {
		// The home's own misses weigh against migrating the page away
		// but trigger nothing themselves.
		cnt.homeUse++
		if boundary {
			cnt.reset()
		}
		return
	}
	if write {
		cnt.write[n]++
	} else {
		cnt.read[n]++
	}
	thr := int32(m.th.MigRepThreshold)

	// Replication: the page is read-only in this interval and the
	// requester reads it heavily. Pages recently collapsed by a write
	// stay ineligible until their counters reset.
	if m.spec.Replication && !cnt.anyWrites() && !cnt.noRepl &&
		cnt.read[n] >= thr && !pg.replica(n) {
		if m.spec.ContentionGate && m.routeHot(h, n) {
			m.throttled++
			return // keep the counters: the move is pending, not denied
		}
		if pg.replicated {
			m.grantReplica(c, n, p)
		} else {
			m.replicate(c, n, p)
		}
		if boundary {
			cnt.reset()
		}
		return
	}

	// Migration: the requester misses on the page at least a threshold
	// more than the home uses it. Remote references accrue to the
	// read/write banks, the home's own references only ever to homeUse,
	// so homeUse is the whole home-side weight of the comparison.
	if m.spec.Migration && !pg.replicated &&
		cnt.total(n) >= cnt.homeUse+thr {
		if m.spec.ContentionGate && m.routeHot(h, n) {
			m.throttled++
			return // keep the counters: the move is pending, not denied
		}
		m.migrate(c, n, p)
	}
	if boundary {
		cnt.reset()
	}
}

// rnumaMiss runs the cacher-side R-NUMA selection of Section 3.2:
// capacity/conflict refetches of a remote page bump its refetch
// counter, and crossing the threshold relocates the page into the
// node's S-COMA page cache — unless a relocation delay
// (Spec.RelocDelayMisses) gives migration/replication first shot at
// the page (Section 6.4).
func (m *Machine) rnumaMiss(c *engine.CPU, n int, p memory.Page, cls stats.MissClass) {
	if cls != stats.CapacityConflict || m.pages[p].home == n || m.pc[n].Entry(p) != nil {
		return
	}
	m.ref[n][p]++
	if int(m.ref[n][p]) < m.th.RNUMAThreshold {
		return
	}
	if d := m.spec.RelocDelayMisses; d > 0 && m.pages[p].misses < int64(d) {
		return
	}
	m.relocate(c, n, p)
}

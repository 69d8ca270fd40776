package dsm

import "fmt"

// Audit mode is the machine's one run-time event-time check. dispatch
// sets the floor to the time of the event it dispatches (the CPU's
// clock plus the op's gap), and every transaction the event starts
// begins at or after it. A resource acquired or a message injected
// before the floor is charged in the simulated past, which skews time
// and traffic without an error; Resource.Acquire's max(now, nextFree)
// even hides the stale time whenever the resource is busy. The floor
// is set, not maxed: transactions of different CPUs overlap and start
// at non-monotone times, and only the dispatched event bounds "now".
//
// Every bus, NI and home-controller acquire in the package takes its
// start time through acquireAt, and every fabric Traverse or Deliver
// its injection time through injectAt. They only count stale times and
// keep the first; AuditViolations formats them. That keeps them
// inlinable, and an unaudited machine's floor stays 0, below every
// event time, so an unaudited run pays one predictable branch per
// check and no call. CI's cursor-inlines step holds them inlinable.

// staleTimes counts the event times an audited run passed below the
// floor, keeping the first with the floor it fell below.
type staleTimes struct {
	count        int64
	first, floor int64
}

// check returns t, counted if it lies below floor.
//
//repro:hotpath
func (s *staleTimes) check(t, floor int64) int64 {
	if t < floor {
		if s.count == 0 {
			s.first, s.floor = t, floor
		}
		s.count++
	}
	return t
}

// report appends s's violation line to out, if s counted any.
func (s *staleTimes) report(out []string, what string) []string {
	if s.count == 0 {
		return out
	}
	return append(out, fmt.Sprintf("dsm: %d %s before the event floor; first at t=%d, floor %d",
		s.count, what, s.first, s.floor))
}

// acquireAt returns t, the time a bus, NI or home-controller acquire
// starts from, checked against the floor.
//
//repro:hotpath
func (m *Machine) acquireAt(t int64) int64 { return m.staleAcquires.check(t, m.floor) }

// injectAt returns t, the time a message enters the fabric, checked
// against the floor.
//
//repro:hotpath
func (m *Machine) injectAt(t int64) int64 { return m.staleInjections.check(t, m.floor) }

// EnableAudit switches the machine into audit mode: every dispatched
// event moves the floor, and dispatch order, resource acquires, fabric
// injections and page-busy updates are checked against it, for
// AuditViolations and internal/audit.Check to report. Auditing changes
// no simulated behaviour: an audited run produces byte-identical
// statistics.
func (m *Machine) EnableAudit() { m.auditing = true }

// AuditViolations returns the event-time violations of an audited
// run: the dispatch-order and page-busy violations first, then one
// line each for resource acquires and fabric injections before the
// floor. Empty means a clean run.
func (m *Machine) AuditViolations() []string {
	out := m.violations.All()
	out = m.staleAcquires.report(out, "resource acquires")
	return m.staleInjections.report(out, "fabric injections")
}

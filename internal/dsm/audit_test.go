package dsm

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/trace"
)

// TestAuditFlagsPastInjection pins the injection half of the one
// event-time check: under audit, a message injected before the floor
// (in the simulated past) is counted, while injections at or after the
// floor — including ones at an earlier absolute time after the floor
// moved back — are clean, and flagged bytes are still counted.
func TestAuditFlagsPastInjection(t *testing.T) {
	m := mk(t, CCNUMA())
	m.EnableAudit()
	op := m.beginPageOp(m.sched.CPUByID(0), 0)
	inject := func(src, dst int, at int64) {
		op.now = at
		op.xfer(src, dst, src, 64)
	}
	m.floor = 1000
	inject(0, 1, 1000) // at the floor: fine
	inject(1, 2, 5000) // after the floor: fine
	if got := m.AuditViolations(); len(got) != 0 {
		t.Fatalf("clean traffic flagged: %v", got)
	}
	inject(2, 3, 999) // in the simulated past
	// A new, earlier floor (the scheduler dispatched an earlier event)
	// legitimizes earlier injections again.
	m.floor = 500
	inject(3, 4, 500)
	got := m.AuditViolations()
	if len(got) != 1 || !strings.Contains(got[0], "1 fabric injections") ||
		!strings.Contains(got[0], "first at t=999, floor 1000") {
		t.Fatalf("violations = %q, want one past injection at t=999", got)
	}
	// Byte accounting is unaffected by auditing and by violations.
	if got := m.fabric.Stats().Pairs[2][3]; got != 64 {
		t.Errorf("flagged message not counted: pair bytes = %d, want 64", got)
	}
}

// TestAuditOffRecordsNothing checks audit mode is strictly opt-in: an
// unaudited machine's dispatch leaves the floor at 0, so charges at
// time 0 after a late dispatch record nothing.
func TestAuditOffRecordsNothing(t *testing.T) {
	m := mk(t, CCNUMA())
	m.pages[0].home = 0
	c := m.sched.Peek()
	if err := m.dispatch(c, trace.Pad, 1000, 0); err != nil {
		t.Fatal(err)
	}
	m.writebackRemote(1, 0, 0, 0)
	op := m.beginPageOp(c, 0)
	op.now = 0
	op.xfer(0, 1, 0, 64)
	if m.floor != 0 {
		t.Errorf("unaudited dispatch moved the floor to %d", m.floor)
	}
	if got := m.AuditViolations(); len(got) != 0 {
		t.Fatalf("audit-off machine recorded %v", got)
	}
}

// startOfTime is a named zero event time: naming a stale time does not
// make it current.
const startOfTime int64 = 0

// TestAuditFlagsStaleAcquires holds the resource half of the check to
// the call shapes a stale event time takes. Each row charges node 1's
// writeback to home 0 from a given time against a floor of late; the
// NI is optionally busy past the floor first.
func TestAuditFlagsStaleAcquires(t *testing.T) {
	const late = int64(1) << 20
	tm := config.Default()
	for _, tc := range []struct {
		name                 string
		busyNI               bool
		at                   int64
		acquires, injections int64
	}{
		// A time-0 writeback behind a busy NI: the NI starts it at
		// max(0, nextFree), so the message enters the fabric after the
		// floor and only the acquire shows the stale time.
		{name: "time-0 writeback behind a busy NI", busyNI: true, at: 0, acquires: 1},
		// A named zero on an idle NI: the NI and home acquires and the
		// injection between them all fall before the floor.
		{name: "named-constant zero", at: startOfTime, acquires: 2, injections: 1},
		{name: "writeback at the floor", busyNI: true, at: late},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mk(t, CCNUMA())
			m.pages[0].home = 0
			m.EnableAudit()
			m.floor = late
			if tc.busyNI {
				m.ni[1].Acquire(late, 4*tm.NIOccupancy)
			}
			m.writebackRemote(1, 0, 0, tc.at)
			if got := m.staleAcquires.count; got != tc.acquires {
				t.Errorf("stale acquires = %d, want %d", got, tc.acquires)
			}
			if got := m.staleInjections.count; got != tc.injections {
				t.Errorf("stale injections = %d, want %d", got, tc.injections)
			}
			if got, clean := len(m.AuditViolations()), tc.acquires+tc.injections == 0; (got == 0) != clean {
				t.Errorf("AuditViolations has %d lines, want clean=%v", got, clean)
			}
		})
	}
}

// TestAuditFlagsEarlyUnblock pins that the dispatch-order check catches
// a CPU woken at time 0 instead of its release time: the scheduler then
// dispatches it at its old clock, behind an event already dispatched.
func TestAuditFlagsEarlyUnblock(t *testing.T) {
	const release = 1000
	for _, tc := range []struct {
		at   int64
		want int
	}{{0, 1}, {release, 0}} {
		m := mk(t, CCNUMA())
		m.EnableAudit()
		dispatch := func(c *engine.CPU, gap uint32) {
			t.Helper()
			if err := m.dispatch(c, trace.Pad, gap, 0); err != nil {
				t.Fatal(err)
			}
		}
		sleeper := m.sched.Peek()
		m.sched.Park(sleeper)
		for i := 1; i < m.sched.NumCPUs(); i++ {
			dispatch(m.sched.Peek(), release)
		}
		dispatch(m.sched.Peek(), 0) // an event at the release time
		m.sched.Unblock(sleeper, tc.at)
		dispatch(m.sched.Peek(), 0)
		if got := len(m.AuditViolations()); got != tc.want {
			t.Errorf("unblock at %d: %d violations %v, want %d", tc.at, got, m.AuditViolations(), tc.want)
		}
	}
}

// TestAuditZeroBytesAtFloorIsClean is the control: a literal 0 byte
// count at the event's time is not a stale event time.
func TestAuditZeroBytesAtFloorIsClean(t *testing.T) {
	m := mk(t, CCNUMA())
	m.EnableAudit()
	m.floor = 1000
	m.roundTrip(1000, 0, 1, 0, 0, 0)
	m.roundTrip(1000, 1, 1, 0, 0, 0)
	if got := m.AuditViolations(); len(got) != 0 {
		t.Errorf("zero-byte messages at the floor flagged: %v", got)
	}
}

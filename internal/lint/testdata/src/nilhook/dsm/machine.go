// Package dsm is the nilhook fixture: telemetry hook call sites in the
// core must sit behind a nil guard, because the collector is nil unless
// telemetry is attached.
package dsm

import "repro/internal/lint/testdata/src/nilhook/telemetry"

type machine struct {
	tel   *telemetry.Collector
	clock int64
}

// dispatchUnguarded calls the hook bare and must be flagged.
func (m *machine) dispatchUnguarded() {
	m.tel.Dispatch(m.clock) // want `telemetry hook m\.tel\.Dispatch is not behind a nil guard`
}

// dispatchGuarded uses the direct-comparison idiom.
func (m *machine) dispatchGuarded() {
	if m.tel != nil {
		m.tel.Dispatch(m.clock)
	}
}

// pageOpGuarded uses the init-statement idiom the fault paths prefer.
func (m *machine) pageOpGuarded(kind int) {
	if tl := m.tel; tl != nil {
		tl.PageOp(kind, m.clock)
	}
}

// attach uses an early return: every hook below the `== nil { return }`
// is guarded.
func (m *machine) attach(c *telemetry.Collector) {
	if c == nil {
		return
	}
	m.tel = c
	c.Bind(4)
}

// bindInElse calls the hook in the else branch of an `== nil` check.
func (m *machine) bindInElse(c *telemetry.Collector) {
	if c == nil {
		m.tel = nil
	} else {
		c.Bind(4)
	}
}

// linkHalfGuarded guards one call but not the sibling that follows the
// guarded block: the second must be flagged.
func (m *machine) linkHalfGuarded(id int) {
	if m.tel != nil {
		m.tel.Link(id, 64, m.clock)
	}
	m.tel.Link(id, 64, m.clock) // want `telemetry hook m\.tel\.Link is not behind a nil guard`
}

// guardDoesNotCrossFuncs: a guard outside a closure does not protect
// calls inside it (the closure may run later, after detach).
func (m *machine) guardDoesNotCrossFuncs() func() {
	if m.tel != nil {
		return func() {
			m.tel.Dispatch(m.clock) // want `telemetry hook m\.tel\.Dispatch is not behind a nil guard`
		}
	}
	return nil
}

// wrongReceiverGuard checks a different expression than it calls.
type pair struct{ a, b *telemetry.Collector }

func (p *pair) mismatch() {
	if p.a != nil {
		p.b.Dispatch(0) // want `telemetry hook p\.b\.Dispatch is not behind a nil guard`
	}
}

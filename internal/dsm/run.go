package dsm

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// RunOptions configures a run beyond the machine parameters.
type RunOptions struct {
	// Audit enables the machine's self-auditing mode: while the trace
	// executes, dispatch order, resource acquires and fabric
	// injections are checked against the time of the event being
	// dispatched (see Machine.EnableAudit), and the internal/audit
	// conservation checks run over the final state; any violation
	// fails the run with a descriptive error. Auditing does not change
	// simulated behaviour.
	Audit bool

	// Telemetry, when non-nil, attaches a collector that records
	// time-resolved series (and optionally the page-operation timeline)
	// as the trace executes. Collection is observational: the simulated
	// statistics are byte-identical with or without it.
	Telemetry *telemetry.Collector

	// Tables, when non-nil, is the table set the machine is built on
	// (see Tables): a caller running many simulations one after another
	// passes the same set to each, and they reuse one directory, one
	// set of per-node tables and one set of caches instead of
	// allocating their own. The caller owns the set and must not pass
	// it to two runs at once. Nil allocates fresh tables for the run.
	// Statistics are byte-identical either way.
	Tables *Tables
}

// RunBaseline runs tr on the normalization baseline: perfect CC-NUMA
// under the base timing model and the default thresholds, on cl with
// its fabric reset to the ideal crossbar. Every normalized time is a
// run's ExecCycles over this run's, so the baseline stays comparable
// across timing models, thresholds and fabrics.
func RunBaseline(tr *trace.Trace, cl config.Cluster, o RunOptions) (*stats.Sim, error) {
	cl.Net = config.Network{}
	return RunWithOptions(tr, PerfectCCNUMA(), cl, config.Default(), config.DefaultThresholds(), o)
}

// RunWithOptions executes a trace on a freshly built machine, on
// o.Tables when set, with the given options and returns the collected
// statistics.
func RunWithOptions(tr *trace.Trace, spec Spec, cl config.Cluster, tm config.Timing, th config.Thresholds, o RunOptions) (*stats.Sim, error) {
	tb := o.Tables
	if tb == nil {
		tb = new(Tables)
	}
	m, err := newMachine(spec, cl, tm, th, tr.Footprint, tr.Name, tb)
	if err != nil {
		return nil, err
	}
	if o.Audit {
		m.EnableAudit()
	}
	m.AttachTelemetry(o.Telemetry)
	if err := m.Execute(tr); err != nil {
		return nil, err
	}
	if o.Audit {
		if err := audit.Check(m); err != nil {
			return nil, fmt.Errorf("dsm: %s on %s: %w", tr.Name, spec.Name, err)
		}
	}
	return m.Stats(), nil
}

// Execute replays the trace to completion on the machine.
//
// The dispatch loop uses the scheduler's in-place cycle (Peek/Requeue/
// Park/Retire): the earliest CPU stays in the heap while its op runs and
// a single sift restores order afterwards, instead of a full pop and
// push per trace op. Dispatch order is identical either way — the heap
// always surfaces the unique (Clock, ID) minimum.
//
// Replay reads each CPU's trace columns through one trace.Cursor per
// CPU: a head byte packs the kind that steers the dispatch switch with
// the gap that advances the clock (escaping to the stream's few 32-bit
// values), and a 16-bit arg (escaping to the same 32-bit column) names
// the block or sync id — 3 B of trace per op, instead of striding an
// array of padded Op structs.
func (m *Machine) Execute(tr *trace.Trace) error {
	if tr.NumCPUs() != m.cl.TotalCPUs() {
		return fmt.Errorf("dsm: trace has %d cpus, machine has %d", tr.NumCPUs(), m.cl.TotalCPUs())
	}
	curs := make([]trace.Cursor, tr.NumCPUs())
	for i := range curs {
		curs[i] = tr.CPUs[i].Cursor()
	}
	sched := m.sched

	for !sched.Done() {
		c := sched.Peek()
		if c == nil {
			return fmt.Errorf("dsm: deadlock: no runnable cpu (%s)", tr.Name)
		}
		op, ok := curs[c.ID].Next()
		if !ok {
			sched.Retire(c)
			continue
		}
		if err := m.dispatch(c, op.Kind, op.Gap, uint64(op.Arg)); err != nil {
			return err
		}
	}
	m.st.ExecCycles = sched.MaxClock()
	m.st.Net = m.fabric.Stats()
	return nil
}

// dispatchedEarly logs that c was dispatched before the last dispatched
// event. It is dispatch's cold path: Addf boxes its arguments.
func (m *Machine) dispatchedEarly(c *engine.CPU) {
	m.violations.Addf("dsm: cpu %d dispatched at %d after event time %d",
		c.ID, c.Clock, m.lastDispatch)
}

// dispatch executes one already-peeked trace op on CPU c: the audit
// pre-checks, the gap advance, and the op itself, which requeues or
// parks c and unblocks the CPUs it releases (barrier waiters, lock
// grants).
//
//repro:hotpath
func (m *Machine) dispatch(c *engine.CPU, kind trace.Kind, gap uint32, arg uint64) error {
	sched := m.sched
	if m.auditing {
		// The scheduler dispatches events in nondecreasing time
		// order; the dispatched clock (plus any trace gap) is the
		// floor below which no resource may be acquired and no
		// message may enter the fabric.
		if c.Clock < m.lastDispatch {
			m.dispatchedEarly(c)
		}
		m.lastDispatch = c.Clock
		m.floor = c.Clock + int64(gap)
	}
	c.Clock += int64(gap)
	m.tel.Dispatch(c.Clock)

	switch kind {
	case trace.Read:
		m.access(c, memory.Block(arg), false)
		sched.Requeue(c)
	case trace.Write:
		m.access(c, memory.Block(arg), true)
		sched.Requeue(c)
	case trace.Barrier:
		arrive := c.Clock
		release, waiters, ok := m.barrier.Arrive(c)
		if !ok {
			sched.Park(c)
			return nil
		}
		m.chargeSync(m.nodeOf(c.ID), c.Clock-arrive)
		for _, w := range waiters {
			m.chargeSync(m.nodeOf(w.ID), release-w.Clock)
			sched.Unblock(w, release)
		}
		sched.Requeue(c)
	case trace.Lock:
		l := m.lock(arg)
		before := c.Clock
		if !l.Acquire(c) {
			sched.Park(c)
			return nil
		}
		m.chargeLock(c, arg, before)
		sched.Requeue(c)
	case trace.Unlock:
		l := m.lock(arg)
		m.lockOwn[arg] = m.nodeOf(c.ID)
		if next := l.Release(c.Clock); next != nil {
			// Charge the new holder before requeueing it: the
			// scheduler heap is keyed by clock, so the clock must
			// reach its final value before Unblock pushes the CPU.
			// (Charging after the push silently corrupted the heap
			// and dispatched CPUs out of simulated-time order.)
			granted := c.Clock
			if granted > next.Clock {
				next.Clock = granted
			}
			m.chargeLock(next, arg, granted)
			sched.Unblock(next, next.Clock)
		}
		sched.Requeue(c)
	case trace.Phase:
		if !m.phaseDone {
			m.phaseDone = true
			// The paper's user-invoked directive starts page
			// monitoring at the beginning of the parallel phase:
			// discard reference counts from initialization.
			for i := range m.pages {
				if cnt := m.pages[i].mig; cnt != nil {
					cnt.reset()
				}
			}
		}
		sched.Requeue(c)
	case trace.Pad:
		sched.Requeue(c)
	default:
		return unknownOp(kind)
	}
	return nil
}

// unknownOp formats the corrupt-trace error out of line, keeping the
// formatting machinery off the dispatch hot path.
func unknownOp(kind trace.Kind) error {
	return fmt.Errorf("dsm: unknown op kind %v", kind)
}

// lock returns the engine lock for a trace lock id, creating it lazily.
//
//repro:hotpath
func (m *Machine) lock(id uint64) *engine.Lock {
	l := m.locks[id]
	if l == nil {
		l = engine.NewLock()
		m.locks[id] = l
	}
	return l
}

// chargeLock accounts the cost of a successful lock acquisition: the
// wait (if the lock was contended) counts as synchronization time, and
// the acquisition itself costs a local or remote memory transaction on
// the lock word depending on where it was last held.
//
//repro:hotpath
func (m *Machine) chargeLock(c *engine.CPU, id uint64, requested int64) {
	n := m.nodeOf(c.ID)
	if c.Clock > requested {
		m.chargeSync(n, c.Clock-requested)
	}
	last, seen := m.lockOwn[id]
	var lat int64
	if !seen || last == n {
		lat = m.tm.LocalMiss
	} else {
		// The lock word moves from its last holder's node; on multi-hop
		// fabrics the transfer pays the extra hops like any other
		// remote transaction.
		lat = m.tm.RemoteMiss + m.forwardExtra(n, last)
		m.traffic(n, msgHeaderBytes+msgBlockBytes, c.Clock)
		m.fabric.Deliver(n, last, msgHeaderBytes, m.injectAt(c.Clock))
		m.fabric.Deliver(last, n, msgBlockBytes, m.injectAt(c.Clock+m.wireLatency(n, last)))
	}
	c.Clock += lat
	m.chargeSync(n, lat)
	m.lockOwn[id] = n
}

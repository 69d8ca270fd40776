// Package engine provides the discrete-event core of the simulator: a set
// of processor clocks advanced in global time order, queued resources that
// model contention (memory buses, network interfaces, home controllers),
// and synchronization objects (barriers and locks) whose waiting time is
// charged in simulated cycles.
//
// The engine is deterministic: when several processors are eligible at the
// same simulated time, the lowest-numbered processor runs first.
package engine

import "fmt"

// Time is simulated time in processor cycles.
type Time = int64

// Resource models a unit-capacity server with FIFO queuing: a request
// arriving at time t begins service at max(t, nextFree) and holds the
// resource for its occupancy. This is the standard analytic contention
// model for split-transaction buses and network interfaces. The zero
// value is an idle resource.
type Resource struct {
	nextFree Time
}

// NewResourceBank returns n idle resources allocated in one block.
func NewResourceBank(n int) []*Resource {
	backing := make([]Resource, n)
	out := make([]*Resource, n)
	for i := range backing {
		out[i] = &backing[i]
	}
	return out
}

// Acquire occupies the resource for occ cycles starting no earlier than
// now, and returns the time at which service completes. The differences
// between the return value and now is the total delay (queuing plus
// service) experienced by the request.
//
//repro:hotpath
func (r *Resource) Acquire(now Time, occ Time) Time {
	start := now
	if r.nextFree > start {
		start = r.nextFree
	}
	r.nextFree = start + occ
	return r.nextFree
}

// Peek returns the earliest time a new request could begin service.
//
//repro:hotpath
func (r *Resource) Peek() Time { return r.nextFree }

// cpuState is the scheduling state of one simulated processor.
type cpuState int

const (
	cpuRunnable cpuState = iota
	cpuBlocked           // waiting at a barrier or on a lock
	cpuDone
)

// CPU is one simulated processor context managed by the Scheduler.
type CPU struct {
	ID    int
	Clock Time

	state cpuState
	index int // position in the runnable heap, -1 if not queued
}

// Scheduler advances a fixed set of CPUs in global simulated-time order.
//
// Each dispatch is an in-place cycle: Peek returns the earliest runnable
// CPU without removing it, the caller advances its Clock (and may push
// other CPUs via Unblock), then Requeue restores heap order, or Park /
// Retire removes the CPU when it blocks or finishes. That is one sift
// per dispatched event, and the heap always surfaces the unique
// (Clock, ID) minimum.
//
// The heap is hand-rolled rather than container/heap: the comparison and
// swap run inline on the concrete slice, which matters because the replay
// loop dispatches one heap operation per trace op. The scheduler keeps
// only what ordering needs; it counts nothing.
type Scheduler struct {
	cpus []*CPU
	heap []*CPU
	done int
}

// NewScheduler creates a scheduler over n CPUs, all runnable at time 0.
func NewScheduler(n int) *Scheduler {
	s := &Scheduler{cpus: make([]*CPU, n), heap: make([]*CPU, n)}
	backing := make([]CPU, n)
	for i := 0; i < n; i++ {
		c := &backing[i]
		c.ID = i
		c.index = i
		s.cpus[i] = c
		s.heap[i] = c // equal clocks in ID order is already a valid heap
	}
	return s
}

// NumCPUs returns the number of processors under management.
func (s *Scheduler) NumCPUs() int { return len(s.cpus) }

// CPUByID returns the processor with the given id.
func (s *Scheduler) CPUByID(id int) *CPU { return s.cpus[id] }

// less orders CPUs by (Clock, ID); IDs are unique, so the order is total
// and the dispatch sequence does not depend on heap layout.
func less(a, b *CPU) bool {
	if a.Clock != b.Clock {
		return a.Clock < b.Clock
	}
	return a.ID < b.ID
}

// up restores the heap property from position i toward the root.
//
//repro:hotpath
func (s *Scheduler) up(i int) {
	h := s.heap
	c := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(c, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = c
	c.index = i
}

// down restores the heap property from position i toward the leaves.
//
//repro:hotpath
func (s *Scheduler) down(i int) {
	h := s.heap
	n := len(h)
	c := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && less(h[r], h[child]) {
			child = r
		}
		if !less(h[child], c) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = c
	c.index = i
}

// push appends a CPU and sifts it up.
//
//repro:hotpath
func (s *Scheduler) push(c *CPU) {
	c.index = len(s.heap)
	s.heap = append(s.heap, c)
	s.up(c.index)
}

// removeAt deletes the CPU at heap position i.
//
//repro:hotpath
func (s *Scheduler) removeAt(i int) {
	h := s.heap
	last := len(h) - 1
	c := h[i]
	if i != last {
		h[i] = h[last]
		h[i].index = i
	}
	h[last] = nil
	s.heap = h[:last]
	if i != last {
		s.down(i)
		s.up(i)
	}
	c.index = -1
}

// Peek returns the runnable CPU with the smallest clock (ties broken by
// id) without removing it, or nil when no CPU is runnable. The caller
// advances the CPU's clock and then calls Requeue, Park or Retire; until
// then the heap is suspended around that CPU, and only Unblock may touch
// it.
//
//repro:hotpath
func (s *Scheduler) Peek() *CPU {
	if len(s.heap) == 0 {
		return nil
	}
	return s.heap[0]
}

// Requeue restores heap order around a peeked CPU whose clock advanced.
// Clocks are monotonic — simulated work only moves a CPU later in time —
// so a single downward sift suffices (the CPU can only have grown
// relative to its children; its parent relation is untouched).
//
//repro:hotpath
func (s *Scheduler) Requeue(c *CPU) {
	if c.state != cpuRunnable || c.index < 0 {
		panic(fmt.Sprintf("engine: requeue of non-queued cpu %d", c.ID))
	}
	s.down(c.index)
}

// Park removes a peeked CPU from the runnable heap and marks it blocked
// on synchronization. It must later be released with Unblock.
//
//repro:hotpath
func (s *Scheduler) Park(c *CPU) {
	if c.index < 0 {
		panic(fmt.Sprintf("engine: park of non-queued cpu %d", c.ID))
	}
	c.state = cpuBlocked
	s.removeAt(c.index)
}

// Retire removes a peeked CPU from the runnable heap and marks it done.
//
//repro:hotpath
func (s *Scheduler) Retire(c *CPU) {
	if c.index < 0 {
		panic(fmt.Sprintf("engine: retire of non-queued cpu %d", c.ID))
	}
	c.state = cpuDone
	s.removeAt(c.index)
	s.done++
}

// Unblock makes a blocked CPU runnable at the given time and requeues it.
//
//repro:hotpath
func (s *Scheduler) Unblock(c *CPU, at Time) {
	if c.state != cpuBlocked {
		panic(fmt.Sprintf("engine: unblock of non-blocked cpu %d", c.ID))
	}
	if at > c.Clock {
		c.Clock = at
	}
	c.state = cpuRunnable
	s.push(c)
}

// Done reports whether every CPU has finished.
func (s *Scheduler) Done() bool { return s.done == len(s.cpus) }

// MaxClock returns the maximum clock over all CPUs — the simulated
// execution time once Done.
func (s *Scheduler) MaxClock() Time {
	var m Time
	for _, c := range s.cpus {
		if c.Clock > m {
			m = c.Clock
		}
	}
	return m
}

// Barrier synchronizes a fixed population of CPUs: the last arriver
// releases everyone at max(arrival times) plus the release overhead.
type Barrier struct {
	population int
	overhead   Time

	waiting []*CPU
	// spare is the previous epoch's waiter slice, recycled so steady-
	// state barrier episodes allocate nothing.
	spare   []*CPU
	maxTime Time
}

// NewBarrier creates a barrier for the given population. overhead is
// added to the release time to account for the barrier implementation's
// own communication.
func NewBarrier(population int, overhead Time) *Barrier {
	if population <= 0 {
		panic("engine: barrier population must be positive")
	}
	return &Barrier{population: population, overhead: overhead}
}

// Arrive registers c at the barrier. If c is the last arriver, Arrive
// returns the release time and the slice of previously waiting CPUs that
// the caller must Unblock at that time; c itself remains runnable and its
// clock is advanced to the release time. Otherwise Arrive returns ok =
// false and the caller must Park c.
//
// The returned waiters slice is only valid until the barrier next
// releases: its backing array is recycled for a later epoch's waiter
// list.
//
//repro:hotpath
func (b *Barrier) Arrive(c *CPU) (release Time, waiters []*CPU, ok bool) {
	if c.Clock > b.maxTime {
		b.maxTime = c.Clock
	}
	if len(b.waiting)+1 == b.population {
		release = b.maxTime + b.overhead
		waiters = b.waiting
		b.waiting = b.spare[:0]
		b.spare = waiters
		b.maxTime = 0
		c.Clock = release
		return release, waiters, true
	}
	b.waiting = append(b.waiting, c)
	return 0, nil, false
}

// Lock models a mutex acquired in simulated-time order. Acquisition is
// serialized: a CPU that requests the lock while it is held is parked and
// released when the holder unlocks. The memory-system cost of the lock
// operation itself (the remote access to the lock word) is charged by the
// caller, not the Lock, which keeps only what serialization needs: whether
// it is held, when it was last freed, and its FIFO of waiters.
type Lock struct {
	held    bool
	freeAt  Time
	waiters []*CPU
}

// NewLock returns an unlocked lock.
func NewLock() *Lock { return &Lock{} }

// Acquire attempts to take the lock for c at its current clock. On
// success it returns ok = true (the caller keeps c runnable; c.Clock may
// have been advanced to the time the lock became free). On failure the
// caller must Park c; the CPU will be handed back by a later Release.
//
//repro:hotpath
func (l *Lock) Acquire(c *CPU) (ok bool) {
	if !l.held {
		l.held = true
		if l.freeAt > c.Clock {
			c.Clock = l.freeAt
		}
		return true
	}
	l.waiters = append(l.waiters, c)
	return false
}

// Release frees the lock at time now. If CPUs are waiting, the first
// waiter becomes the new holder and is returned so the caller can
// Unblock it at now; otherwise next is nil.
//
//repro:hotpath
func (l *Lock) Release(now Time) (next *CPU) {
	if !l.held {
		panic("engine: release of unheld lock")
	}
	l.freeAt = now
	if len(l.waiters) == 0 {
		l.held = false
		return nil
	}
	next = l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	return next
}

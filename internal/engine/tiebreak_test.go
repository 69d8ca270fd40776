package engine

import (
	"math/rand"
	"testing"
)

// TestDispatchOrderIsTotalUnderHeapChurn pins the deterministic
// tie-break: the scheduler must always surface the unique (Clock, ID)
// minimum of the runnable set, no matter how Park/Unblock/Retire churn
// reshapes the heap. Equal-clock events with an undefined order would
// pass the simple two-CPU tie test but reorder under a different heap
// layout, making dispatch order (and with it every simulated result)
// depend on the history of heap operations, not on the CPUs' clocks.
func TestDispatchOrderIsTotalUnderHeapChurn(t *testing.T) {
	const cpus = 24
	rng := rand.New(rand.NewSource(41))
	s := NewScheduler(cpus)
	var parked []*CPU
	runnable := func() []*CPU {
		var out []*CPU
		for id := 0; id < cpus; id++ {
			if c := s.CPUByID(id); c.state == cpuRunnable {
				out = append(out, c)
			}
		}
		return out
	}
	for step := 0; step < 5000 && !s.Done(); step++ {
		// Unblock a parked CPU at a clock that collides with live ones.
		if len(parked) > 0 && rng.Intn(4) == 0 {
			c := parked[len(parked)-1]
			parked = parked[:len(parked)-1]
			s.Unblock(c, c.Clock+Time(rng.Intn(3)))
		}
		c := s.Peek()
		if c == nil {
			break
		}
		// The peeked CPU must be the (Clock, ID) minimum of the
		// runnable set, computed independently of the heap.
		for _, o := range runnable() {
			if o.Clock < c.Clock || (o.Clock == c.Clock && o.ID < c.ID) {
				t.Fatalf("step %d: dispatched cpu %d at %d, but cpu %d at %d is earlier",
					step, c.ID, c.Clock, o.ID, o.Clock)
			}
		}
		switch rng.Intn(8) {
		case 0:
			s.Park(c)
			parked = append(parked, c)
		case 1:
			s.Retire(c)
		default:
			// Zero-gap advances keep equal-clock collisions frequent.
			c.Clock += Time(rng.Intn(3))
			s.Requeue(c)
		}
	}
	for _, c := range parked {
		s.Unblock(c, c.Clock)
		s.Retire(c)
	}
}

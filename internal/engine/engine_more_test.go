package engine

import (
	"testing"
	"testing/quick"
)

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 100)
	r.Reset()
	if r.Busy() != 0 || r.Uses() != 0 || r.Peek() != 0 {
		t.Errorf("reset left state: busy=%d uses=%d peek=%d", r.Busy(), r.Uses(), r.Peek())
	}
	if end := r.Acquire(5, 10); end != 15 {
		t.Errorf("post-reset acquire = %d, want 15", end)
	}
	if r.Name() != "x" {
		t.Errorf("name = %q", r.Name())
	}
}

func TestResourceUtilizationAccounting(t *testing.T) {
	// Property: total busy time equals the sum of occupancies.
	f := func(occs []uint8) bool {
		r := NewResource("u")
		var want Time
		var now Time
		for _, o := range occs {
			d := Time(o%20) + 1
			want += d
			now = r.Acquire(now, d)
		}
		return r.Busy() == want && r.Uses() == int64(len(occs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBarrierPopulationValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-population barrier did not panic")
		}
	}()
	NewBarrier(0, 0)
}

// TestYieldNonRunnablePanics: handing a parked CPU back to the heap
// with Requeue, as if it had run, panics.
func TestYieldNonRunnablePanics(t *testing.T) {
	s := NewScheduler(1)
	c := s.Peek()
	s.Park(c)
	defer func() {
		if recover() == nil {
			t.Error("requeue of parked cpu did not panic")
		}
	}()
	s.Requeue(c)
}

func TestUnblockRunnablePanics(t *testing.T) {
	s := NewScheduler(1)
	c := s.Peek()
	defer func() {
		if recover() == nil {
			t.Error("unblock of runnable cpu did not panic")
		}
	}()
	s.Unblock(c, 10)
}

func TestMaxClock(t *testing.T) {
	s := NewScheduler(3)
	for i := 0; i < 3; i++ {
		c := s.Peek()
		c.Clock = Time(100 * (i + 1))
		s.Retire(c)
	}
	if got := s.MaxClock(); got != 300 {
		t.Errorf("max clock = %d, want 300", got)
	}
}

func TestBarrierWaitingCount(t *testing.T) {
	b := NewBarrier(3, 0)
	s := NewScheduler(3)
	c := s.CPUByID(0)
	b.Arrive(c)
	if b.Waiting() != 1 {
		t.Errorf("waiting = %d, want 1", b.Waiting())
	}
}

// TestManyCPUsFairness: under identical per-step advances every CPU
// executes the same number of steps.
func TestManyCPUsFairness(t *testing.T) {
	const n = 32
	s := NewScheduler(n)
	steps := make([]int, n)
	for i := 0; i < n*100; i++ {
		c := s.Peek()
		steps[c.ID]++
		c.Clock += 10
		s.Requeue(c)
	}
	for id, got := range steps {
		if got != 100 {
			t.Errorf("cpu %d ran %d steps, want 100", id, got)
		}
	}
}

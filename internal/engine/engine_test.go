package engine

import (
	"testing"
	"testing/quick"
)

func TestResourceQueuing(t *testing.T) {
	r := NewResource("bus")
	if end := r.Acquire(100, 10); end != 110 {
		t.Fatalf("first acquire ends at %d, want 110", end)
	}
	// A request arriving during service queues behind it.
	if end := r.Acquire(105, 10); end != 120 {
		t.Fatalf("queued acquire ends at %d, want 120", end)
	}
	// A request arriving after the resource is free starts immediately.
	if end := r.Acquire(500, 10); end != 510 {
		t.Fatalf("idle acquire ends at %d, want 510", end)
	}
	if r.Busy() != 30 {
		t.Errorf("busy = %d, want 30", r.Busy())
	}
	if r.Uses() != 3 {
		t.Errorf("uses = %d, want 3", r.Uses())
	}
}

func TestResourceNeverOverlaps(t *testing.T) {
	// Property: service intervals never overlap and never start before
	// the request time.
	f := func(arrivals []uint16, occ uint8) bool {
		r := NewResource("x")
		o := Time(occ%50) + 1
		var now, lastEnd Time
		for _, a := range arrivals {
			now += Time(a % 100)
			end := r.Acquire(now, o)
			start := end - o
			if start < now || start < lastEnd {
				return false
			}
			lastEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(3)
	a := s.Peek()
	a.Clock = 50
	s.Requeue(a)
	b := s.Peek()
	b.Clock = 10
	s.Requeue(b)
	c := s.Peek()
	c.Clock = 30
	s.Requeue(c)
	// Expect dispatches in clock order: 10, 30, 50.
	var got []Time
	for i := 0; i < 3; i++ {
		c := s.Peek()
		got = append(got, c.Clock)
		s.Retire(c)
	}
	want := []Time{10, 30, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d at time %d, want %d", i, got[i], want[i])
		}
	}
	if !s.Done() {
		t.Error("scheduler not done after finishing all cpus")
	}
}

func TestSchedulerTieBreaksByID(t *testing.T) {
	s := NewScheduler(4)
	// All clocks equal: dispatches must come in id order.
	for want := 0; want < 4; want++ {
		c := s.Peek()
		if c.ID != want {
			t.Fatalf("dispatched id %d, want %d", c.ID, want)
		}
		s.Retire(c)
	}
}

func TestSchedulerBlockUnblock(t *testing.T) {
	s := NewScheduler(2)
	a := s.Peek() // id 0
	s.Park(a)
	b := s.Peek() // id 1
	b.Clock = 42
	// Unblocking while b is peeked, as the replay loop does when b
	// releases a barrier or a lock.
	s.Unblock(a, 42)
	s.Requeue(b)
	// Both runnable at 42: id order applies.
	if c := s.Peek(); c.ID != 0 || c.Clock != 42 {
		t.Fatalf("got cpu %d at %d, want cpu 0 at 42", c.ID, c.Clock)
	}
}

func TestUnblockNeverRewindsClock(t *testing.T) {
	s := NewScheduler(1)
	c := s.Peek()
	c.Clock = 100
	s.Park(c)
	s.Unblock(c, 50) // release time before the cpu's own clock
	if c.Clock != 100 {
		t.Errorf("clock rewound to %d", c.Clock)
	}
}

func TestBarrierReleasesAtMaxPlusOverhead(t *testing.T) {
	b := NewBarrier(3, 7)
	s := NewScheduler(3)
	c0 := s.Peek()
	c0.Clock = 10
	if _, _, ok := b.Arrive(c0); ok {
		t.Fatal("barrier released early")
	}
	s.Park(c0)
	c1 := s.Peek()
	c1.Clock = 90
	if _, _, ok := b.Arrive(c1); ok {
		t.Fatal("barrier released early")
	}
	s.Park(c1)
	c2 := s.Peek()
	c2.Clock = 40
	release, waiters, ok := b.Arrive(c2)
	if !ok {
		t.Fatal("last arriver did not release")
	}
	if release != 97 {
		t.Errorf("release at %d, want 97 (max 90 + overhead 7)", release)
	}
	if len(waiters) != 2 {
		t.Errorf("%d waiters, want 2", len(waiters))
	}
	if c2.Clock != 97 {
		t.Errorf("releaser clock %d, want 97", c2.Clock)
	}
	if b.Epochs() != 1 {
		t.Errorf("epochs = %d, want 1", b.Epochs())
	}
}

func TestBarrierReuse(t *testing.T) {
	b := NewBarrier(2, 0)
	s := NewScheduler(2)
	x, y := s.CPUByID(0), s.CPUByID(1)
	for epoch := 1; epoch <= 5; epoch++ {
		x.Clock = Time(epoch * 100)
		if _, _, ok := b.Arrive(x); ok {
			t.Fatal("released with one arrival")
		}
		y.Clock = Time(epoch*100 + 50)
		release, waiters, ok := b.Arrive(y)
		if !ok || len(waiters) != 1 || release != Time(epoch*100+50) {
			t.Fatalf("epoch %d: release=%d ok=%v waiters=%d", epoch, release, ok, len(waiters))
		}
		x.Clock = release
	}
	if b.Epochs() != 5 {
		t.Errorf("epochs = %d, want 5", b.Epochs())
	}
}

func TestLockSerializes(t *testing.T) {
	l := NewLock()
	s := NewScheduler(3)
	a := s.CPUByID(0)
	a.Clock = 10
	if !l.Acquire(a) {
		t.Fatal("free lock refused acquisition")
	}
	if l.Holder() != a.ID {
		t.Fatalf("holder = %d, want %d", l.Holder(), a.ID)
	}
	b := s.CPUByID(1)
	b.Clock = 15
	if l.Acquire(b) {
		t.Fatal("held lock granted twice")
	}
	next := l.Release(60)
	if next != b {
		t.Fatal("release did not hand off to waiter")
	}
	if next2 := l.Release(80); next2 != nil {
		t.Fatal("empty queue release returned a cpu")
	}
	if l.Holder() != -1 {
		t.Errorf("holder = %d after final release", l.Holder())
	}
	if l.Acquisitions() != 2 {
		t.Errorf("acquisitions = %d, want 2", l.Acquisitions())
	}
}

func TestLockFreeTimeCarries(t *testing.T) {
	l := NewLock()
	s := NewScheduler(2)
	a := s.CPUByID(0)
	a.Clock = 10
	l.Acquire(a)
	l.Release(100)
	// A later uncontended acquire at t=20 must not begin before the
	// lock was actually free.
	b := s.CPUByID(1)
	b.Clock = 20
	if !l.Acquire(b) {
		t.Fatal("free lock refused")
	}
	if b.Clock != 100 {
		t.Errorf("acquire advanced clock to %d, want 100", b.Clock)
	}
}

func TestLockFIFO(t *testing.T) {
	l := NewLock()
	s := NewScheduler(4)
	holder := s.CPUByID(0)
	l.Acquire(holder)
	var waiters []*CPU
	for i := 0; i < 3; i++ {
		c := s.CPUByID(i + 1)
		if l.Acquire(c) {
			t.Fatal("held lock granted")
		}
		waiters = append(waiters, c)
	}
	for i := 0; i < 3; i++ {
		next := l.Release(Time(100 * (i + 1)))
		if next != waiters[i] {
			t.Fatalf("handoff %d went to cpu %d, want %d", i, next.ID, waiters[i].ID)
		}
	}
	if l.MaxQueue() != 3 {
		t.Errorf("max queue = %d, want 3", l.MaxQueue())
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("release of unheld lock did not panic")
		}
	}()
	NewLock().Release(0)
}

func TestSchedulerDeterminism(t *testing.T) {
	// Property: interleaving a fixed workload twice yields identical
	// dispatch sequences.
	run := func() []int {
		s := NewScheduler(4)
		var order []int
		steps := map[int]int{}
		for !s.Done() {
			c := s.Peek()
			order = append(order, c.ID)
			steps[c.ID]++
			if steps[c.ID] >= 5 {
				s.Retire(c)
				continue
			}
			c.Clock += Time((c.ID*7+steps[c.ID]*13)%29 + 1)
			s.Requeue(c)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

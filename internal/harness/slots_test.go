package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachStopsAfterFailure: once an item fails, the worker pool
// starts no further items, and the error returned is still the first
// in item order. Item 1 fails at once; item 0 holds its worker until
// item 1 has failed and freed its slot, so the only free worker is the
// failed one.
func TestForEachStopsAfterFailure(t *testing.T) {
	items := make([]systemRun, 8)
	slots := NewSlots(2)
	first, later := errors.New("item 0 failed"), errors.New("item 1 failed")
	failing := make(chan struct{})
	var calls atomic.Int64
	err := forEach(context.Background(), slots, items, 2, func(i int, _ systemRun) error {
		calls.Add(1)
		switch i {
		case 0:
			<-failing
			for slots.InUse() > 1 {
				runtime.Gosched()
			}
			return first
		case 1:
			close(failing)
			return later
		}
		return nil
	})
	if !errors.Is(err, first) {
		t.Errorf("forEach error = %v, want the first in item order (%v)", err, first)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("items run = %d of %d, want 2: dispatch went on after a failure", n, len(items))
	}
}

// TestSlotsBoundSimulationsInFlight: a lone run with two workers on a
// two-slot set runs two simulations at once, and two such runs sharing
// the set never run more than two together.
func TestSlotsBoundSimulationsInFlight(t *testing.T) {
	slots := NewSlots(2)
	var inFlight, peak atomic.Int64
	enter := func() int64 {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		return n
	}

	both := make(chan struct{})
	var bothOnce sync.Once
	err := forEach(context.Background(), slots, make([]systemRun, 2), 2, func(int, systemRun) error {
		defer inFlight.Add(-1)
		if enter() == 2 {
			bothOnce.Do(func() { close(both) })
		}
		select {
		case <-both:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the other simulation never started")
		}
	})
	if err != nil {
		t.Fatalf("lone run: %v", err)
	}

	// Each simulation lingers until a third joins it, or 10 ms: without
	// the shared bound the two runs' four workers reach three at once.
	peak.Store(0)
	over := make(chan struct{})
	var overOnce sync.Once
	sim := func(int, systemRun) error {
		defer inFlight.Add(-1)
		if enter() > 2 {
			overOnce.Do(func() { close(over) })
		}
		select {
		case <-over:
		case <-time.After(10 * time.Millisecond):
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(len(errs))
	for r := range errs {
		go func() {
			defer wg.Done()
			errs[r] = forEach(context.Background(), slots, make([]systemRun, 6), 2, sim)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("run %d: %v", r, err)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d simulations in flight on a two-slot set", p)
	}
	if n := slots.InUse(); n != 0 {
		t.Errorf("%d slots still held after both runs", n)
	}
}

// TestSlotWaitObservesContext: a run waiting for a slot that another
// run holds returns as soon as its context is cancelled, serially and
// with a worker pool, without running anything. The cancel comes late
// enough for the run to be waiting on the slot, not at its first
// cancellation check.
func TestSlotWaitObservesContext(t *testing.T) {
	for _, workers := range []int{1, 2} {
		slots := NewSlots(1)
		if err := slots.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		done := make(chan error, 1)
		go func() {
			done <- forEach(ctx, slots, make([]systemRun, 3), workers, func(int, systemRun) error {
				calls.Add(1)
				return nil
			})
		}()
		stop := time.AfterFunc(20*time.Millisecond, cancel)
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers %d: forEach error = %v, want %v", workers, err, context.Canceled)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers %d: forEach still waiting for a slot after cancel", workers)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("workers %d: %d items ran without a slot", workers, n)
		}
		stop.Stop()
		cancel()
		slots.release()
	}
}

package harness

import "context"

// Slots is a counting semaphore shared by runs that must not together
// exceed a number of simulations in flight. Waiting runs take freed
// slots in the order they asked, so a run that starts waiting while
// another holds every slot waits for one simulation, not for the whole
// other run.
type Slots struct{ held chan struct{} }

// NewSlots returns a set of n slots (minimum 1).
func NewSlots(n int) *Slots {
	return &Slots{held: make(chan struct{}, max(n, 1))}
}

// InUse returns the number of slots held right now.
func (s *Slots) InUse() int { return len(s.held) }

// acquire takes a slot, or returns the context's error if ctx has
// ended or ends first. A nil set never blocks.
func (s *Slots) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil || s == nil {
		return err
	}
	select {
	case s.held <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot taken by acquire.
func (s *Slots) release() {
	if s != nil {
		<-s.held
	}
}

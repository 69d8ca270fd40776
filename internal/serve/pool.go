package serve

import (
	"sync"
	"sync/atomic"
)

// workPool is the bounded admission stage behind the server's cold
// path: a fixed number of workers, each running one cold query,
// draining a fixed-depth queue. The bound is the backpressure
// mechanism — TrySubmit refuses instead of queueing without limit, and
// the HTTP layer turns that refusal into 429 + Retry-After. The pool
// bounds queries, not cores: the simulations of running queries share
// the server's harness.Slots, so they never exceed its worker count.
type workPool struct {
	queue chan func()
	wg    sync.WaitGroup

	queued  atomic.Int64 // jobs accepted but not yet started
	running atomic.Int64 // jobs currently executing

	mu     sync.Mutex
	closed bool
}

// newWorkPool starts workers goroutines draining a queue of the given
// depth (minimums of 1 apply to both).
func newWorkPool(workers, depth int) *workPool {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &workPool{queue: make(chan func(), depth)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.queue {
				p.queued.Add(-1)
				p.running.Add(1)
				job()
				p.running.Add(-1)
			}
		}()
	}
	return p
}

// TrySubmit enqueues job if the queue has room, reporting whether it
// was accepted. It never blocks: a full queue (or a draining pool) is
// an immediate refusal, which is what lets the server bound its
// admission latency under overload.
func (p *workPool) TrySubmit(job func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.queue <- job:
		p.queued.Add(1)
		return true
	default:
		return false
	}
}

// Drain stops admission and waits for every accepted job to finish.
// Safe to call once; submissions after Drain are refused.
func (p *workPool) Drain() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Queued returns the number of accepted-but-unstarted jobs.
func (p *workPool) Queued() int64 { return p.queued.Load() }

// Running returns the number of executing jobs.
func (p *workPool) Running() int64 { return p.running.Load() }

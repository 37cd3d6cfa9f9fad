package ring

import (
	"runtime"
	"sync/atomic"
	"time"
)

// yieldSpins is the length of a wait episode's yield phase: how many
// fruitless polls are answered with runtime.Gosched before the waiter
// arms and parks. A short phase keeps a consumer that is about to be
// fed on the run queue (parking at once lets the producer run until its
// window is full, so queueing delay rises); a long one is the idle burn
// parking exists to remove. This is the one place the wait strategy is
// tuned.
const yieldSpins = 8

// Parker is the dataplane's wait primitive: one goroutine (its owner)
// sleeps on it, any number of publishers wake it. It replaces the
// poll-and-sleep loops: a publisher pays one atomic load when nobody is
// armed, and an idle waiter costs no CPU at all.
//
// The owner drives it with Idle and Reset around its own poll loop:
//
//	for !done {
//		if pollEveryInput() {
//			p.Reset()
//			continue
//		}
//		p.Idle()
//	}
//
// An episode of consecutive Idle calls yields yieldSpins times, then
// ARMS and returns — the caller's next poll is the mandatory re-check —
// and only the call after that parks. A publisher makes its state
// visible (ring tail, closed flag, ack counter) and THEN calls Wake,
// which loads armed. sync/atomic operations are sequentially
// consistent, so either the re-check sees the publication or the
// publisher sees armed and signals: a wake-up cannot be lost. One
// Parker may be registered on many rings (a bolt waits on all its
// source links at once). Wake-ups may be spurious — a token left by a
// Wake that raced a Reset is consumed by one later park, after which
// the owner re-polls, re-arms and really sleeps — so callers always
// re-poll after Idle returns.
type Parker struct {
	armed atomic.Bool
	token chan struct{} // capacity 1: all a park needs is "somebody called Wake"

	// Owner-only episode state, on its own cache line: publishers load
	// armed on every publish and must not miss because the owner counted
	// a yield.
	_     [cacheLine]byte
	spins int
	set   bool        // armed by the owner and not yet parked or reset
	timer *time.Timer // lazily created by IdleTimeout
}

// NewParker returns a Parker for one waiting goroutine.
func NewParker() *Parker {
	return &Parker{token: make(chan struct{}, 1)}
}

// Wake releases the owner if it is armed (or about to park); otherwise
// it is one atomic load. Safe from any goroutine.
func (p *Parker) Wake() {
	if p.armed.Load() && p.armed.CompareAndSwap(true, false) {
		select {
		case p.token <- struct{}{}:
		default: // a stale token is already there; it wakes the owner just as well
		}
	}
}

// Idle is the owner's step after a poll of every input found nothing:
// yield, arm, or park (see the type comment). It reports whether this
// call parked.
func (p *Parker) Idle() bool { return p.idle(0) }

// IdleTimeout is Idle with a bounded park: it returns after at most d
// even if nobody calls Wake, for waiters with periodic duties.
func (p *Parker) IdleTimeout(d time.Duration) bool { return p.idle(d) }

func (p *Parker) idle(d time.Duration) bool {
	switch {
	case p.spins < yieldSpins:
		p.spins++
		runtime.Gosched()
		return false
	case !p.set:
		p.set = true
		p.armed.Store(true)
		return false
	}
	p.set = false
	if d <= 0 {
		<-p.token
	} else {
		if p.timer == nil {
			p.timer = time.NewTimer(d)
		} else {
			p.timer.Reset(d)
		}
		select {
		case <-p.token:
			p.timer.Stop()
		case <-p.timer.C:
		}
	}
	// Normally the waker's CAS already disarmed. After a timeout or a
	// stale token nobody did; a Wake that won the CAS just before this
	// store leaves a token for a later park to swallow.
	p.armed.Store(false)
	return true
}

// Reset ends the wait episode: the owner made progress (or gave up).
// The next Idle starts a fresh yield phase.
func (p *Parker) Reset() {
	if p.spins != 0 { // a busy owner resets every loop: keep that read-only
		p.spins = 0
	}
	if p.set {
		p.set = false
		p.armed.Store(false)
	}
}

package transport

import (
	"fmt"
	"sync"
	"time"
)

// ChaosConfig is a deterministic fault schedule: the same seed and
// per-link traffic order always produce the same drops and severs, so
// fault tests are reproducible.
type ChaosConfig struct {
	// Seed derandomizes the drop schedule; 0 means 1.
	Seed uint64
	// DropOneIn drops roughly one in N sender-side buffer writes. On
	// TCP the bytes vanish before reaching the kernel — the receiver's
	// sequence gap or the sender's ack timeout forces a retransmission;
	// on memory the slab is held back and redelivered later (the
	// backend is lossless by construction, so a "drop" is a delay that
	// still exercises reordering-free redelivery). 0 disables drops.
	DropOneIn int
	// SeverEvery severs the link on every N-th buffer write: TCP closes
	// the connection mid-stream (forcing a reconnect + resend episode),
	// memory stalls the link for the next few slabs. The counter-based
	// schedule guarantees every link with enough traffic is severed. 0
	// disables severs.
	SeverEvery int
	// AcceptDelay stalls the accept side of every TCP reconnect (the
	// serve goroutine sleeps before replaying), widening the outage
	// window the sender's redial backoff must ride out. 0 disables.
	AcceptDelay time.Duration
}

// ChaosLinkStats is one link's injected-fault ledger.
type ChaosLinkStats struct {
	// Writes is how many sender-side buffer writes the schedule judged.
	Writes int64
	// Dropped is how many of them were dropped (TCP) or held back
	// (memory).
	Dropped int64
	// Severed is how many times the link was severed.
	Severed int64
}

// chaos verdicts for one buffer write.
const (
	chaosPass = iota
	chaosDrop
	chaosSever
)

// chaosState is the schedule shared by every link of one wrapped
// transport. Verdicts are deterministic in (seed, link name, per-link
// write index); the mutex only orders concurrent map access — each
// link has a single writer, so its verdict sequence is stable.
type chaosState struct {
	cfg   ChaosConfig
	mu    sync.Mutex
	links map[string]*ChaosLinkStats
}

func newChaosState(cfg ChaosConfig) *chaosState {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &chaosState{cfg: cfg, links: make(map[string]*ChaosLinkStats)}
}

func (cs *chaosState) verdict(name string) int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cl := cs.links[name]
	if cl == nil {
		cl = &ChaosLinkStats{}
		cs.links[name] = cl
	}
	cl.Writes++
	if n := cs.cfg.SeverEvery; n > 0 && cl.Writes%int64(n) == 0 {
		cl.Severed++
		return chaosSever
	}
	if n := cs.cfg.DropOneIn; n > 0 {
		x := mix64(cs.cfg.Seed ^ hashName(name) ^ uint64(cl.Writes)*0x9e3779b97f4a7c15)
		if x%uint64(n) == 0 {
			cl.Dropped++
			return chaosDrop
		}
	}
	return chaosPass
}

func (cs *chaosState) delayAccept() {
	if d := cs.cfg.AcceptDelay; d > 0 {
		time.Sleep(d)
	}
}

func (cs *chaosState) stats() map[string]ChaosLinkStats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make(map[string]ChaosLinkStats, len(cs.links))
	for k, v := range cs.links {
		out[k] = *v
	}
	return out
}

// chaosSeverHold is how many subsequent slabs a severed memory link
// holds back, emulating the outage window a TCP sever causes.
const chaosSeverHold = 4

// Chaos wraps a backend with deterministic fault injection. Over TCP
// it hooks the sender's write path (drops and severs) and the accept
// path (reconnect delay); over memory — lossless by construction — it
// injects FIFO-preserving holdback: faulted slabs queue behind the
// link and redeliver on a later send or flush, so delivery order is
// untouched while the timing chaos is real. Either way the messages
// that come out are exactly the messages that went in; the fault
// parity tests pin that end to end.
type Chaos struct {
	inner Transport
	st    *chaosState

	mu    sync.Mutex
	links map[string]*Link
}

// NewChaos wraps a Memory or TCP transport with the fault schedule.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	c := &Chaos{inner: inner, st: newChaosState(cfg), links: make(map[string]*Link)}
	if t, ok := inner.(*TCP); ok {
		t.chaos = c.st
	}
	return c
}

// Open implements Transport.
func (c *Chaos) Open(name string, capacity int) (*Link, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.links[name]; ok {
		return l, nil
	}
	inner, err := c.inner.Open(name, capacity)
	if err != nil {
		return nil, err
	}
	l := inner
	if _, isTCP := c.inner.(*TCP); !isTCP {
		// Memory backend: interpose the holdback sender. The wrapper
		// deliberately does not implement SlabGranter — the zero-copy
		// fast path would bypass the fault schedule.
		l = &Link{
			Name:     inner.Name,
			Sender:   &chaosSender{inner: inner.Sender, st: c.st, name: name},
			Receiver: inner.Receiver,
			err:      inner.err,
			recv:     inner.recv,
			send:     inner.send,
		}
	}
	c.links[name] = l
	return l, nil
}

// Close implements Transport.
func (c *Chaos) Close() error { return c.inner.Close() }

// Stats returns the per-link injected-fault ledger (for asserting a
// run actually suffered the faults it claims to have survived).
func (c *Chaos) Stats() map[string]ChaosLinkStats { return c.st.stats() }

// Err surfaces the inner transport's first hard error, if the backend
// reports one.
func (c *Chaos) Err() error {
	if t, ok := c.inner.(*TCP); ok {
		return t.Err()
	}
	return nil
}

// chaosSender is the memory backend's fault interposer: faulted slabs
// are held back (appended to a pending queue) and released — strictly
// before newer traffic, preserving link FIFO order — on a later
// unfaulted send, or unconditionally on Flush/Close. Spouts flush
// before blocking on acks and bolts flush every window, so holdback
// can delay but never deadlock a run.
type chaosSender struct {
	inner   Sender
	st      *chaosState
	name    string
	held    []Msg
	holding int // sends remaining in the current sever episode
}

func (s *chaosSender) SendSlab(msgs []Msg) error {
	switch s.st.verdict(s.name) {
	case chaosSever:
		s.holding = chaosSeverHold
	case chaosDrop:
		if s.holding == 0 {
			s.holding = 1
		}
	}
	if s.holding > 0 {
		s.holding--
		s.held = append(s.held, msgs...)
		return nil
	}
	if err := s.release(); err != nil {
		return err
	}
	return s.inner.SendSlab(msgs)
}

func (s *chaosSender) release() error {
	if len(s.held) == 0 {
		return nil
	}
	err := s.inner.SendSlab(s.held)
	s.held = s.held[:0]
	return err
}

func (s *chaosSender) Flush() error {
	s.holding = 0
	if err := s.release(); err != nil {
		return err
	}
	return s.inner.Flush()
}

func (s *chaosSender) Close() error {
	s.holding = 0
	if err := s.release(); err != nil {
		s.inner.Close()
		return err
	}
	return s.inner.Close()
}

// String implements fmt.Stringer for diagnostics.
func (c *ChaosConfig) String() string {
	return fmt.Sprintf("chaos{seed=%d drop=1/%d sever=1/%d acceptDelay=%s}",
		c.Seed, c.DropOneIn, c.SeverEvery, c.AcceptDelay)
}

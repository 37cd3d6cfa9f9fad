package transport

import (
	"sync"

	"slb/internal/ring"
)

// Memory is the in-process backend: every link is one SPSC ring of Msg
// values, so a SendSlab is a Grant/copy/Publish and a RecvSlab an
// Acquire/copy/Release, with no per-message allocation and no framing:
// the engine's default backend, and the baseline that isolates the wire
// cost to the TCP backend.
type Memory struct {
	mu    sync.Mutex
	links map[string]*Link
}

// NewMemory returns an empty in-memory transport.
func NewMemory() *Memory {
	return &Memory{links: make(map[string]*Link)}
}

// Open implements Transport. Capacity is rounded up to the ring's
// power-of-two minimum.
func (t *Memory) Open(name string, capacity int) (*Link, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.links[name]; ok {
		return l, nil
	}
	if capacity < 2 {
		capacity = 2
	}
	r := ring.New[Msg](capacity)
	l := &Link{Name: name, Sender: (*memSender)(r), recv: r, send: r}
	t.links[name] = l
	return l, nil
}

// Close implements Transport. Every ring is closed, which wakes both
// of its waiters: a parked receiver drains and observes done, a sender
// parked on a full link returns ErrClosed.
func (t *Memory) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.links {
		l.recv.Close()
	}
	t.links = make(map[string]*Link)
	return nil
}

type memSender ring.SPSC[Msg]

func (s *memSender) ring() *ring.SPSC[Msg] { return (*ring.SPSC[Msg])(s) }

// SendSlab copies msgs into the ring. A full link applies backpressure
// rather than dropping or growing: the sender yields a few times, then
// parks on the ring's producer Parker (the one Link.SetSendWaiter
// registered, else one made here) until the receiver's Release wakes
// it. It fails only if the ring is closed under it (Memory.Close).
func (s *memSender) SendSlab(msgs []Msg) error {
	r := s.ring()
	var p *ring.Parker
	for len(msgs) > 0 {
		dst := r.Grant(len(msgs))
		if dst == nil {
			if p == nil {
				if p = r.ProducerWaiter(); p == nil {
					p = ring.NewParker()
					r.SetProducerWaiter(p)
				}
			}
			if r.Closed() {
				p.Reset()
				return ErrClosed
			}
			p.Idle()
			continue
		}
		if p != nil {
			p.Reset()
		}
		copy(dst, msgs)
		r.Publish(len(dst))
		msgs = msgs[len(dst):]
	}
	return nil
}

// Flush is a no-op: ring publishes are immediately visible.
func (s *memSender) Flush() error { return nil }

// Close implements Sender.
func (s *memSender) Close() error {
	s.ring().Close()
	return nil
}

// Package transport is the edge fabric for the goroutine dataplane: it
// moves slabs of tuples between spouts, bolts, and reducer shards over
// named point-to-point links, behind one interface with two backends.
//
// The memory backend maps each link onto one internal/ring SPSC ring of
// Msg values — a Grant/Publish copy on send and an Acquire/copy/Release
// on receive — so steady-state traffic allocates nothing and stays
// within a few percent of writing the ring directly. The TCP backend
// carries the same slabs over loopback (or real) connections using the
// columnar wire-format-v2 codec (frame.go): struct-of-arrays frames
// over a persistent per-link key dictionary with an epoch-reset
// protocol, so a hot key's bytes cross the wire once per epoch and a
// steady-state message costs a few bytes. The sender is pipelined and
// self-clocked — the caller's goroutine encodes into a coalescing
// buffer and hands it to a dedicated writer goroutine, which moves it
// to the kernel with vectored writes, once it is full or as soon as the
// writer has caught up (tcp.go) — and a per-connection reader goroutine
// decodes frames into an SPSC ring through a reusable key arena, so
// the receive side is identical in shape to the memory backend and
// steady-state decode allocates nothing. Per-link telemetry (tx/rx
// bytes, frames, messages, flushes, send stalls, dictionary hits and
// resets) lands in the engine's internal/telemetry registry.
//
// # Contract
//
// Links are single-producer single-consumer: exactly one goroutine
// sends on a link's Sender and exactly one calls its RecvSlab.
// SendSlab copies the slab in (parking the sender while the link is
// full, until the receiver frees space); Flush pushes any coalesced
// bytes toward the peer — for the TCP backend it hands them to the writer stage and returns without
// waiting for the kernel (per-link ordering is preserved, and write
// errors surface on a later SendSlab/Flush/Close); for the memory
// backend it is a no-op, sends being immediately visible. Close marks
// the producer side done; after the receiver drains every in-flight
// message, RecvSlab reports done. RecvSlab is non-blocking — it
// returns 0 when no messages are ready — because consumers multiplex
// many links round-robin. A consumer that finds all of them empty does
// not poll: it registers one ring.Parker on every link it drains
// (Link.SetRecvWaiter) and parks on it; a link wakes its waiter whenever
// messages are published, the producer closes, or the link fails or is
// torn down (Link.SetSendWaiter is the mirror, for a producer that
// SendSlab parks on a full link). Message order is preserved per link;
// nothing is dropped.
//
// # Delivery under faults
//
// The TCP backend keeps that contract when connections die. Every
// coalescing buffer carries a sequence number; the receiver streams
// cumulative acks back and the sender retains a bounded window of
// unacked buffers (16 per link, ≈512 KB at most). When a connection is
// lost — write error, receiver-detected sequence gap, or ack timeout
// (TCPConfig.ResendTimeout) — the sender redials under exponential
// backoff with a jitter seeded by the link name
// (TCPConfig.RedialBackoff, RedialAttempts, MaxReconnects), resets the
// codec's dictionary epoch (a fresh connection always starts a fresh
// epoch: the documented resync point that makes mid-stream loss unable
// to desynchronize the dictionaries), reads the resync handshake — each accepted connection
// opens with the receiver's current cumulative ack, before any data —
// and replays only what that mark says is still undelivered. The wire
// is therefore at-least-once; the receiver's sequence state, which
// persists across connections, discards duplicates at the receive
// edge, so the link as a whole delivers every message exactly once, in
// order. With MaxReconnects < 0 a lost connection is a hard error on
// that link (Link.Err) — never silent loss. TCPConfig.Chaos subjects
// the wire to a deterministic fault schedule (seeded drops and periodic
// severs) for tests and soaks, counted per link in
// transport_chaos_writes_total, transport_chaos_drops_total and
// transport_chaos_severs_total; the memory backend, lossless by
// construction, has no fault model. The recovery machinery reports
// transport_reconnects_total, transport_retransmit_frames_total,
// transport_retransmit_bytes_total, transport_dup_msgs_dropped_total
// and transport_outage_seconds per link.
package transport

import (
	"errors"
	"sync/atomic"

	"slb/internal/ring"
)

// Msg is the one tuple shape that crosses links. The dataplane maps
// spout→bolt tuples onto it (Weight = per-message value, Emit = emit
// timestamp in ns when latency-sampled, Src = producing source, or -1
// for a watermark tick) and bolt→reducer partials onto it (Weight =
// partial count, Val0/Val1 = the accumulated aggregation value, Src =
// producing worker). Key travels alongside its digest because finals
// are keyed by string; the frame codec dictionary-encodes it so a hot
// key's bytes cross a TCP link once per dictionary reset, not once per
// message.
type Msg struct {
	Dig    uint64
	Window int64
	Weight int64
	Val0   uint64
	Val1   uint64
	Emit   int64
	Src    int32
	Key    string
}

// Sender is the producer end of one link.
type Sender interface {
	// SendSlab copies the slab onto the link. While the link is full
	// the caller is parked, not spinning: it resumes when the receiver
	// frees space, or with an error when the link is broken or torn
	// down (peer gone, connection failed, transport closed).
	SendSlab(msgs []Msg) error
	// Flush forces any coalesced bytes out to the peer.
	Flush() error
	// Close flushes, then marks the producer done. The receiver drains
	// in-flight messages and then observes done.
	Close() error
}

// Link is one named point-to-point edge: the producer end is its
// Sender, the consumer end RecvSlab.
type Link struct {
	Name string
	Sender

	// err is the link-scoped first hard error (TCP backend); nil for
	// backends that cannot fail per-link.
	err *atomic.Pointer[error]

	// recv is the ring RecvSlab drains (both backends deliver through
	// one); send is the ring the Sender fills directly — the same ring
	// in process, nil over TCP, whose sender waits on its buffer pool
	// instead.
	recv, send *ring.SPSC[Msg]
}

// RecvSlab copies up to len(buf) ready messages into buf and returns
// how many. It never blocks: n == 0 means nothing is ready right now
// (to wait for more, park on Link.SetRecvWaiter's Parker). done reports
// that the producer closed AND every message has been received; once
// done, n is always 0.
func (l *Link) RecvSlab(buf []Msg) (n int, done bool) {
	src := l.recv.Acquire(len(buf))
	if len(src) == 0 {
		return 0, l.recv.Drained()
	}
	n = copy(buf, src)
	l.recv.Release(n)
	return n, false
}

// SetRecvWaiter registers the receiving goroutine's Parker: the link
// wakes it whenever RecvSlab may have something new to report —
// messages published, producer closed, link failed or torn down. A
// consumer multiplexing many links registers the same Parker on each,
// polls them all, and calls Parker.Idle when none progressed. Call it
// before the goroutines start.
func (l *Link) SetRecvWaiter(p *ring.Parker) { l.recv.SetConsumerWaiter(p) }

// Len returns the number of messages delivered to the link's receive
// ring and not yet received. A snapshot, like ring.SPSC.Len; over TCP it
// leaves out what is still in buffers or on the wire.
func (l *Link) Len() int { return l.recv.Len() }

// SetSendWaiter registers the sending goroutine's Parker: the link wakes
// it whenever the receiver frees space, and SendSlab parks on it while
// the link is full. Without one, SendSlab makes its own on first need.
// Over TCP it is a no-op: that sender never spins, it blocks on its
// buffer pool.
func (l *Link) SetSendWaiter(p *ring.Parker) {
	if l.send != nil {
		l.send.SetProducerWaiter(p)
	}
}

// Err reports the link's first hard delivery error, if any. Errors are
// scoped per link: one broken peer surfaces here (and on the
// transport's aggregate Err) without poisoning sibling links' sends.
// Backends that cannot fail per-link (memory) always report nil.
func (l *Link) Err() error {
	if l.err == nil {
		return nil
	}
	if p := l.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Transport hands out links by name and owns their shared resources.
type Transport interface {
	// Open creates (or returns the existing) link with this name and
	// per-link buffer capacity of at least cap messages. Both ends are
	// usable immediately; the capacity is rounded up as the backend
	// requires. Open must be called before goroutines race on the link.
	Open(name string, cap int) (*Link, error)
	// Close tears down every link and shared resource. Senders must be
	// closed first; Close does not wait for unread messages.
	Close() error
}

// ErrClosed is returned by sends on a link whose transport or peer is
// already gone.
var ErrClosed = errors.New("transport: link closed")

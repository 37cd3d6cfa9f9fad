package transport

import (
	"net"
	"sync/atomic"
	"time"
)

// TCPConfig tunes the TCP backend's delivery machinery — the bounded
// resend window, the retransmission timeout, and the reconnect budget —
// and optionally puts its links under a fault schedule.
// The zero value selects defaults sized for reliable links; fault
// tests and chaos runs shrink the timers so recovery is fast relative
// to the run.
type TCPConfig struct {
	// MaxReconnects bounds how many times one link may re-establish its
	// connection over its lifetime; exhausting the budget is a hard
	// link error (the run fails loudly — never a short count). 0 means
	// 64. Negative disables reconnection entirely: the first connection
	// loss is immediately fatal to the link, which is the regime the
	// no-silent-loss test pins.
	MaxReconnects int
	// RedialAttempts bounds the dial tries of ONE reconnect episode;
	// between tries the sender sleeps a jittered exponential backoff
	// starting at RedialBackoff (doubling per try, capped at 64×); the
	// jitter sequence is seeded by the link name alone.
	// Exhausting the attempts is a hard link error. 0 means 10.
	RedialAttempts int
	// RedialBackoff is the initial redial backoff; 0 means 1ms.
	RedialBackoff time.Duration
	// ResendTimeout is the retransmission timeout: with unacked frames
	// outstanding and no ack arriving for this long, the sender
	// declares the connection lost and reconnects. A dropped TAIL frame
	// produces no sequence gap at the receiver, so only this timer can
	// detect it. 0 means 250ms.
	ResendTimeout time.Duration
	// Chaos, when non-nil, subjects every link's buffer writes to the
	// deterministic fault schedule (ChaosConfig). nil is the fault-free
	// wire.
	Chaos *ChaosConfig
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.MaxReconnects == 0 {
		c.MaxReconnects = 64
	}
	if c.RedialAttempts <= 0 {
		c.RedialAttempts = 10
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = time.Millisecond
	}
	if c.ResendTimeout <= 0 {
		c.ResendTimeout = 250 * time.Millisecond
	}
	if c.Chaos != nil && c.Chaos.Seed == 0 {
		ch := *c.Chaos
		ch.Seed = 1
		c.Chaos = &ch
	}
	return c
}

// retainedBufs is the resend window in coalescing buffers: the sender
// retains every written-but-unacked buffer for retransmission and
// SendSlab backpressures once all of them are retained. 16 buffers are
// at most ≈512 KB per link, reached only when buffers fill to the
// coalescing threshold (a busy writer or lagging acks); an idle link
// hands over smaller buffers, and only while at least half the pool is
// free.
const retainedBufs = 16

// sendBuf is one coalescing buffer staged between the encoder and the
// writer. b holds fully enveloped data records — uvarint(seq)
// uvarint(len) payload per frame — so a retransmission rewrites the
// bytes verbatim; first and last are the frame sequence numbers inside
// (0 when empty).
type sendBuf struct {
	b           []byte
	first, last uint64
}

func (b *sendBuf) reset() {
	b.b = b.b[:0]
	b.first, b.last = 0, 0
}

// senderConn is one live connection attempt of a link's sender. The
// ack-reader goroutine marks it dead (and closes it) on read error or
// retransmission timeout; the writer goroutine observes the flag and
// reconnects.
type senderConn struct {
	c    net.Conn
	dead atomic.Bool
}

func (sc *senderConn) kill() {
	sc.dead.Store(true)
	sc.c.Close()
}

// mix64 is the splitmix64 finalizer used for deterministic jitter and
// fault schedules (the same mixer eventsim's link-delay model uses).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashName folds a link name into the fault/jitter hash domain.
func hashName(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

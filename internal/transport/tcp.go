package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"slb/internal/ring"
	"slb/internal/telemetry"
)

// coalesceBytes is the per-link write-coalescing threshold: a buffer
// that reaches it goes to the writer stage even while the writer is
// busy, so small slabs share syscalls and packets under load (tcpSender
// describes the earlier, self-clocked handover).
const coalesceBytes = 32 << 10

// senderGather bounds how many queued buffers the writer folds into one
// vectored writev call on the fault-free path.
const senderGather = 4

// ackEveryBytes is the receiver's ack cadence under sustained load: a
// cumulative ack goes out at least once per this many received payload
// bytes, so the sender's bounded resend window drains steadily instead
// of oscillating between full and empty. Idle links ack as soon as the
// read buffer empties.
const ackEveryBytes = 2 * coalesceBytes

// finMarker is the reserved sequence value that introduces a FIN
// record; real frame sequence numbers start at 1.
const finMarker = 0

// TCP is the wire backend: one loopback (or real) TCP connection per
// link, frames encoded by the columnar varint codec in frame.go over a
// persistent per-link key dictionary, and a delivery layer that
// survives connection loss with exactness intact.
//
// Wire protocol, per link, dialer → listener:
//
//	hello = uvarint(len(name)) name uvarint(firstSeq)
//	data  = uvarint(seq)  uvarint(len(payload)) payload   (seq ≥ 1)
//	fin   = uvarint(0)    uvarint(finSeq)                 (finSeq = lastSeq+1)
//
// and listener → dialer on the same connection, a stream of 8-byte
// little-endian cumulative acks. Every frame carries a link sequence
// number; the sender retains written-but-unacked coalescing buffers (a
// bounded window — SendSlab backpressures when it fills) and, when a
// connection dies, redials with jittered exponential backoff and
// retransmits from the last cumulative ack. The receiver keeps
// per-link sequence state across connections: in-order frames are
// decoded and published, re-sent frames it already owns are counted
// and discarded (the dedup edge that turns at-least-once delivery back
// into exactly-once), and a sequence gap kills the connection so the
// sender's retransmission closes it. A frame is acked once decoded —
// receipt, not consumption — so ring backpressure never masquerades as
// loss; keepalive re-acks while the ring is full keep the sender's
// retransmission timer quiet.
//
// The receive side still lands in an SPSC ring through a reusable key
// arena, so the consumer reads (and waits on) it exactly like the
// memory backend; the serving goroutine is that ring's producer and
// parks on its own Parker while the ring is full.
type TCP struct {
	reg *telemetry.Registry
	cfg TCPConfig
	ln  net.Listener
	wg  sync.WaitGroup

	mu      sync.Mutex
	links   map[string]*Link
	recvs   map[string]*tcpRecvState
	senders []*tcpSender
	conns   []net.Conn

	closed atomic.Bool
	err    atomic.Pointer[error]
}

// NewTCP starts a loopback listener and returns an empty transport with
// default delivery tuning. Per-link telemetry lands in reg when it is
// non-nil.
func NewTCP(reg *telemetry.Registry) (*TCP, error) {
	return NewTCPWithConfig(reg, TCPConfig{})
}

// NewTCPWithConfig is NewTCP with explicit delivery tuning (resend
// window, retransmission timeout, reconnect budget) and, optionally, a
// fault schedule.
func NewTCPWithConfig(reg *telemetry.Registry, cfg TCPConfig) (*TCP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &TCP{
		reg:   reg,
		cfg:   cfg.withDefaults(),
		ln:    ln,
		links: make(map[string]*Link),
		recvs: make(map[string]*tcpRecvState),
	}
	t.wg.Add(1)
	go t.accept()
	return t, nil
}

// Err returns the first hard error of any link (or of the transport
// itself), if any. Per-link errors are also scoped to their Link — a
// broken peer never poisons sibling links' sends.
func (t *TCP) Err() error {
	if p := t.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (t *TCP) fail(err error) {
	if err == nil {
		return
	}
	t.err.CompareAndSwap(nil, &err)
}

// failLink records a hard, unrecoverable error against one link: the
// link's shared error slot poisons its sender, the transport-level Err
// aggregates it, and the receive ring closes — waking a parked consumer
// (and a serve parked on the full ring) — so the consumer drains and
// observes done instead of waiting for frames that cannot arrive.
// Sibling links are untouched.
func (t *TCP) failLink(rs *tcpRecvState, err error) {
	rs.lerr.CompareAndSwap(nil, &err)
	t.fail(err)
	rs.ring.Close()
	t.mu.Lock()
	s := rs.sender
	t.mu.Unlock()
	if s != nil {
		s.wakeWriter()
	}
}

// Open implements Transport: it registers the link's receive state,
// dials the listener with the hello header, and starts the sender's
// writer and ack-reader goroutines. The receive state is registered
// before dialing, so the serving goroutine always finds it.
func (t *TCP) Open(name string, capacity int) (*Link, error) {
	t.mu.Lock()
	if l, ok := t.links[name]; ok {
		t.mu.Unlock()
		return l, nil
	}
	if t.closed.Load() {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if capacity < 2 {
		capacity = 2
	}
	r := ring.New[Msg](capacity)
	st := newLinkStats(t.reg, name, t.cfg.Chaos != nil)
	lerr := &atomic.Pointer[error]{}
	rs := &tcpRecvState{
		name:    name,
		ring:    r,
		st:      st,
		lerr:    lerr,
		park:    ring.NewParker(),
		nextSeq: 1,
		payload: make([]byte, 0, coalesceBytes),
		slab:    make([]Msg, 0, 512),
	}
	r.SetProducerWaiter(rs.park)
	t.recvs[name] = rs
	t.mu.Unlock()

	s := newTCPSender(t, name, st, rs, lerr)
	t.mu.Lock()
	rs.sender = s
	t.mu.Unlock()
	conn, err := s.dialHello()
	if err != nil {
		return nil, err
	}
	sc := &senderConn{c: conn}
	go s.ackLoop(sc)
	go s.writeLoop(sc)

	l := &Link{Name: name, Sender: s, err: lerr, recv: r}
	t.mu.Lock()
	t.links[name] = l
	t.senders = append(t.senders, s)
	t.mu.Unlock()
	return l, nil
}

// Close implements Transport. Closing every receive ring first wakes
// whoever is parked on one: a serve goroutine waiting for space sees
// the closed transport and returns, and a consumer whose sender never
// closed drains what arrived and observes done.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.ln.Close()
	t.mu.Lock()
	conns := t.conns
	t.conns = nil
	senders := t.senders
	for _, rs := range t.recvs {
		rs.ring.Close()
	}
	t.mu.Unlock()
	for _, s := range senders {
		s.shutdown()
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return t.Err()
}

func (t *TCP) accept() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		t.conns = append(t.conns, conn)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serve(conn)
	}
}

// tcpRecvState is one link's receive-side delivery state. It is shared
// by every connection the link's sender ever dials: the decoder, the
// expected sequence number and the FIN latch all survive reconnects,
// which is exactly what makes retransmitted frames detectable as
// duplicates.
type tcpRecvState struct {
	name   string
	ring   *ring.SPSC[Msg]
	park   *ring.Parker // serve's wait for ring space; the ring's producer waiter
	st     *linkStats
	lerr   *atomic.Pointer[error] // shared with the sender; first hard error
	sender *tcpSender             // guarded by TCP.mu

	mu      sync.Mutex // serializes serve() bodies across reconnects
	dec     Decoder
	nextSeq uint64
	// finished latches once the FIN is decoded: every frame through the
	// FIN was received in order. It is atomic because the sender's
	// writer reads it during reconnect to confirm delivery when the
	// final ack died with the connection (serve writes it under mu).
	finished atomic.Bool
	payload  []byte
	slab     []Msg
}

// serve is the per-connection receive loop. It binds the connection to
// its link via the hello header, then replays the connection's records
// into the link's persistent sequence state. Transient connection
// errors just return — the sender's reconnect machinery recovers;
// protocol violations and decode failures are hard link errors.
func (t *TCP) serve(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > frameMaxKey {
		t.fail(fmt.Errorf("transport: bad link hello: %v", err))
		return
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		t.fail(fmt.Errorf("transport: bad link hello: %w", err))
		return
	}
	firstSeq, err := binary.ReadUvarint(br)
	if err != nil {
		t.fail(fmt.Errorf("transport: bad link hello: %w", err))
		return
	}
	t.mu.Lock()
	rs := t.recvs[string(nameBuf)]
	t.mu.Unlock()
	if rs == nil {
		t.fail(fmt.Errorf("transport: connection for unknown link %q", nameBuf))
		return
	}
	// One connection at a time replays into the link state: a
	// reconnect's serve waits here until the previous connection's
	// serve observes its closed socket and returns.
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.lerr.Load() != nil {
		return
	}
	if firstSeq > rs.nextSeq {
		t.failLink(rs, fmt.Errorf("transport: link %s: resume at seq %d but expected %d: frames permanently lost", rs.name, firstSeq, rs.nextSeq))
		return
	}

	st := rs.st
	connOK := true
	ackedOut := uint64(0)
	sinceAck := 0
	var ackBuf [8]byte
	writeAck := func(seq uint64) {
		binary.LittleEndian.PutUint64(ackBuf[:], seq)
		if _, werr := conn.Write(ackBuf[:]); werr != nil {
			connOK = false
		}
	}
	flushAck := func() {
		if a := rs.nextSeq - 1; connOK && a > ackedOut {
			writeAck(a)
			ackedOut = a
			sinceAck = 0
		}
	}
	// Resync handshake: unconditionally ack the current high-water mark
	// at the head of every connection — even ack 0 on a fresh link. A
	// reconnecting sender reads this ack synchronously before
	// retransmitting: acks in flight on the previous connection die with
	// its socket, and replaying from a stale resume point would resend
	// frames the receiver already holds.
	ackedOut = rs.nextSeq - 1
	writeAck(ackedOut)
	beat := t.cfg.ResendTimeout / 4
	for connOK {
		if br.Buffered() == 0 || sinceAck >= ackEveryBytes {
			flushAck()
			if !connOK {
				return
			}
		}
		seq, err := binary.ReadUvarint(br)
		if err != nil {
			return // conn died mid-stream: the sender's reconnect recovers
		}
		if seq == finMarker {
			finSeq, err := binary.ReadUvarint(br)
			if err != nil {
				return
			}
			switch {
			case finSeq == rs.nextSeq && !rs.finished.Load():
				rs.nextSeq++
				rs.finished.Store(true)
				rs.ring.Close()
			case finSeq < rs.nextSeq:
				// Duplicate FIN after a reconnect: re-acked below.
			default:
				return // gap before the FIN: the sender must resend first
			}
			flushAck()
			continue
		}
		frameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return
		}
		if frameLen > frameMaxLen {
			t.failLink(rs, fmt.Errorf("%w: frame of %d bytes on link %s", ErrCorrupt, frameLen, rs.name))
			return
		}
		rx := int(frameLen) + uvarintLen(frameLen) + uvarintLen(seq)
		switch {
		case seq < rs.nextSeq:
			// Retransmission overlap: this frame was already decoded and
			// published once. Count its messages (the payload's leading
			// varint) and discard the bytes without touching the decoder
			// — the dedup edge that keeps delivery exactly-once.
			peek, perr := br.Peek(min(int(frameLen), binary.MaxVarintLen64))
			if perr != nil {
				return
			}
			count, _ := binary.Uvarint(peek)
			if _, derr := br.Discard(int(frameLen)); derr != nil {
				return
			}
			st.addDupMsgs(int64(count))
			st.addRxBytes(int64(rx))
			sinceAck += rx
			continue
		case seq > rs.nextSeq:
			// Frames vanished in flight (dropped or half-written before
			// the conn died): kill the connection; the sender
			// retransmits everything past the last cumulative ack.
			return
		}
		if rs.finished.Load() {
			t.failLink(rs, fmt.Errorf("transport: link %s: data frame %d after fin", rs.name, seq))
			return
		}
		if uint64(cap(rs.payload)) < frameLen {
			rs.payload = make([]byte, frameLen)
		}
		payload := rs.payload[:frameLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		st.addRxBytes(int64(rx))
		sinceAck += rx
		slab, err := rs.dec.DecodeFrame(payload, rs.slab[:0])
		rs.slab = slab
		if err != nil {
			t.failLink(rs, fmt.Errorf("transport: link %s: %w", rs.name, err))
			return
		}
		// The frame is decoded and owned by this process: advance the
		// sequence (and ack) before publishing, so ring backpressure
		// can never starve the sender's retransmission timer into
		// spurious resends. Acks mean "received", not "consumed".
		rs.nextSeq++
		rem := slab
		stalled := false
		var lastBeat time.Time
		for len(rem) > 0 {
			dst := rs.ring.Grant(len(rem))
			if dst == nil {
				if !stalled {
					stalled = true
					st.addStall()
					flushAck()
					lastBeat = time.Now()
				} else if connOK && time.Since(lastBeat) >= beat {
					// Keepalive re-ack while the ring backpressures:
					// any ack record counts as liveness on the sender
					// side, so the RTO only fires for real loss.
					writeAck(rs.nextSeq - 1)
					lastBeat = time.Now()
				}
				if t.closed.Load() || rs.lerr.Load() != nil {
					rs.park.Reset()
					return
				}
				// Parked until the consumer's Release (or a Close) wakes
				// it, but never past the next keepalive.
				rs.park.IdleTimeout(beat)
				continue
			}
			if stalled {
				stalled = false
				rs.park.Reset()
			}
			copy(dst, rem)
			rs.ring.Publish(len(dst))
			rem = rem[len(dst):]
		}
	}
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// tcpSender is the producer end of one TCP link, split into pipelined
// stages: the caller's goroutine ENCODES slabs (with their sequence
// envelope) into the active coalescing buffer, a WRITER goroutine moves
// filled buffers to the kernel and owns reconnection/retransmission,
// and a per-connection ACK-READER goroutine advances the cumulative
// ack and arms the retransmission timeout. Buffers rotate free →
// encode → out → write → retained-until-acked → free; the bounded pool
// is the resend window, and rotate blocking on the free channel is the
// backpressure that keeps it bounded.
//
// The link is self-clocked: the encoder hands a buffer over when it
// reaches coalesceBytes, or as soon as the writer has caught up with
// everything handed to it while at least half the pool is free. A busy
// writer therefore lets buffers fill, an idle one takes each frame at
// once, and a link whose acks lag (half the pool or more retained)
// coalesces to full buffers again, so the resend window is never spent
// on small ones.
type tcpSender struct {
	t     *TCP
	name  string
	cfg   TCPConfig
	stats *linkStats
	rs    *tcpRecvState

	// Producer-owned.
	enc     Encoder
	cur     *sendBuf
	nextSeq uint64
	handed  uint64 // last seq handed to the writer
	finSeq  uint64 // set by Close before close(out); read by the writer after
	err     error  // sticky producer-side error
	closed  bool
	closing atomic.Bool // producer entered Close; shutdown must not poison

	out  chan *sendBuf
	free chan *sendBuf
	done chan struct{} // writer exited

	// Shared.
	lerr      *atomic.Pointer[error] // first hard error; shared with recv side
	needReset atomic.Bool            // reconnect → encoder: reset dictionary epoch
	acked     atomic.Uint64          // highest cumulative ack seen
	written   atomic.Uint64          // highest seq written (or chaos-dropped)
	wake      chan struct{}          // ack progress / conn death → writer

	// Writer-owned.
	retained    []*sendBuf // written but unacked, in seq order
	reconnects  int
	finWritten  bool
	rng         uint64
	vec         net.Buffers
	link        uint64 // hashName(name): the chaos schedule's link key
	chaosWrites uint64 // buffer writes the chaos schedule has judged
}

func newTCPSender(t *TCP, name string, st *linkStats, rs *tcpRecvState, lerr *atomic.Pointer[error]) *tcpSender {
	link := hashName(name)
	s := &tcpSender{
		t:     t,
		name:  name,
		cfg:   t.cfg,
		stats: st,
		rs:    rs,
		cur:   &sendBuf{b: make([]byte, 0, coalesceBytes+coalesceBytes/4)},
		out:   make(chan *sendBuf, retainedBufs),
		free:  make(chan *sendBuf, retainedBufs),
		done:  make(chan struct{}),
		lerr:  lerr,
		wake:  make(chan struct{}, 1),
		rng:   mix64(link),
		link:  link,
	}
	s.nextSeq = 1
	for i := 0; i < retainedBufs-1; i++ {
		s.free <- &sendBuf{b: make([]byte, 0, coalesceBytes+coalesceBytes/4)}
	}
	return s
}

// dialHello dials the listener and writes the hello header announcing
// the link name and the first sequence number this connection will
// carry (acked+1 — the resume point after a reconnect).
func (s *tcpSender) dialHello() (net.Conn, error) {
	conn, err := net.Dial("tcp", s.t.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	hdr := binary.AppendUvarint(nil, uint64(len(s.name)))
	hdr = append(hdr, s.name...)
	hdr = binary.AppendUvarint(hdr, s.acked.Load()+1)
	if _, err := conn.Write(hdr); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// readHandshakeAck synchronously reads the resync ack the receiver
// writes at the head of every accepted connection, so a reconnect
// learns the true resume point before retransmitting anything. Without
// it, acks destroyed with the previous socket would leave the sender
// replaying from a stale mark — and under a deterministic fault
// schedule the unsynchronized replay can repeat the exact write
// pattern that killed the last connection, livelocking the link.
func (s *tcpSender) readHandshakeAck(conn net.Conn) (uint64, error) {
	conn.SetReadDeadline(time.Now().Add(s.cfg.ResendTimeout))
	var rec [8]byte
	if _, err := io.ReadFull(conn, rec[:]); err != nil {
		return 0, err
	}
	conn.SetReadDeadline(time.Time{})
	return binary.LittleEndian.Uint64(rec[:]), nil
}

func (s *tcpSender) wakeWriter() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// fail records a hard, unrecoverable sender-side error: the shared
// link error poisons both ends, the transport aggregates it, and the
// receive ring closes so the consumer is not left waiting for frames
// that can no longer arrive.
func (s *tcpSender) fail(err error) {
	s.lerr.CompareAndSwap(nil, &err)
	s.t.fail(err)
	s.rs.ring.Close()
	s.wakeWriter()
}

// shutdown is the transport-Close path for senders whose producer never
// called Close (abnormal teardown): mark the link failed so the writer
// stops reconnecting and the producer unblocks. Cleanly closed senders
// are left untouched.
func (s *tcpSender) shutdown() {
	if s.closing.Load() {
		// The producer is (or finished) closing cleanly: the writer
		// terminates on its own — the transport's closed flag bounds any
		// reconnect wait — so wait for it instead of poisoning the link.
		<-s.done
		return
	}
	select {
	case <-s.done:
		return
	default:
	}
	err := ErrClosed
	s.lerr.CompareAndSwap(nil, &err)
	s.wakeWriter()
}

// checkErr folds the shared link error into the producer-side sticky
// error.
func (s *tcpSender) checkErr() error {
	if s.err == nil {
		if p := s.lerr.Load(); p != nil {
			s.err = *p
		}
	}
	return s.err
}

// ackTo advances the cumulative ack high-water mark.
func (s *tcpSender) ackTo(seq uint64) {
	for {
		old := s.acked.Load()
		if seq <= old || s.acked.CompareAndSwap(old, seq) {
			return
		}
	}
}

func (s *tcpSender) bumpWritten(seq uint64) {
	if seq > s.written.Load() {
		s.written.Store(seq)
	}
}

// ackLoop reads the reverse channel of one connection: 8-byte
// little-endian cumulative acks. It doubles as the retransmission
// timer — a full ResendTimeout with no ack record while frames are
// outstanding means the tail was lost (a dropped tail never surfaces
// as a receiver-side gap), so the connection is declared dead and the
// writer retransmits. Any record, even a duplicate ack, counts as
// liveness; idle connections with nothing outstanding just rearm.
func (s *tcpSender) ackLoop(sc *senderConn) {
	var rec [8]byte
	have := 0
	for {
		sc.c.SetReadDeadline(time.Now().Add(s.cfg.ResendTimeout))
		n, err := sc.c.Read(rec[have:])
		have += n
		if have == 8 {
			have = 0
			s.ackTo(binary.LittleEndian.Uint64(rec[:]))
			s.wakeWriter()
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !sc.dead.Load() {
				if have > 0 || s.acked.Load() >= s.written.Load() {
					continue // partial record in flight, or idle: rearm
				}
			}
			sc.kill()
			s.wakeWriter()
			return
		}
	}
}

// writeLoop is the writer stage: it recycles acked buffers back to the
// pool, moves filled buffers to the kernel (vectored on the fault-free
// path), writes the FIN once the producer closes, and owns reconnection
// — retransmitting everything past the last cumulative ack on a fresh
// connection. It exits when the FIN is acked (clean) or the link goes
// hard-error (draining the pipeline so the producer never deadlocks).
func (s *tcpSender) writeLoop(sc *senderConn) {
	defer close(s.done)
	outOpen := true
	pend := make([]*sendBuf, 0, senderGather)
	for {
		// Recycle buffers the cumulative ack has released.
		a := s.acked.Load()
		for len(s.retained) > 0 && s.retained[0].last <= a {
			b := s.retained[0]
			s.retained = s.retained[1:]
			b.reset()
			s.free <- b
		}

		if s.lerr.Load() != nil {
			if sc != nil {
				sc.kill()
			}
			s.drain(outOpen)
			return
		}

		if !outOpen && s.finWritten && a >= s.finSeq {
			// Everything through the FIN is acked: clean exit.
			if sc != nil {
				sc.c.Close()
			}
			return
		}

		if sc == nil || sc.dead.Load() {
			sc = s.reconnect(sc)
			continue
		}

		if !outOpen && !s.finWritten {
			s.writeFin(sc)
			continue
		}

		if outOpen {
			select {
			case b, ok := <-s.out:
				if !ok {
					outOpen = false
					continue
				}
				pend = append(pend[:0], b)
			gather:
				for len(pend) < senderGather {
					select {
					case b2, ok2 := <-s.out:
						if !ok2 {
							outOpen = false
							break gather
						}
						pend = append(pend, b2)
					default:
						break gather
					}
				}
				s.writeBufs(sc, pend)
			case <-s.wake:
			}
			continue
		}
		// FIN written; wait for ack progress or conn death (the
		// ack-reader's timeout guarantees one of them).
		<-s.wake
	}
}

// drain unblocks the producer after a hard error: every buffer goes
// straight back to the pool so rotate and Close never block on a dead
// pipeline. It parks on the out channel until the producer closes it.
func (s *tcpSender) drain(outOpen bool) {
	for _, b := range s.retained {
		b.reset()
		s.free <- b
	}
	s.retained = s.retained[:0]
	for outOpen {
		b, ok := <-s.out
		if !ok {
			return
		}
		b.reset()
		s.free <- b
	}
}

// writeBufs ships freshly filled buffers. Fault-free, they fold into
// one vectored write; under chaos each buffer gets its own verdict.
// Every buffer is retained for retransmission regardless of write
// outcome — only a cumulative ack releases it.
func (s *tcpSender) writeBufs(sc *senderConn, pend []*sendBuf) {
	if s.cfg.Chaos != nil {
		for _, b := range pend {
			s.retained = append(s.retained, b)
			if !sc.dead.Load() {
				s.writeBuf(sc, b, false)
			}
		}
		s.stats.addFlushes(1)
		return
	}
	s.vec = s.vec[:0]
	last := uint64(0)
	for _, b := range pend {
		s.vec = append(s.vec, b.b)
		s.retained = append(s.retained, b)
		last = b.last
	}
	n, err := s.vec.WriteTo(sc.c)
	s.stats.addBytes(n)
	s.stats.addFlushes(1)
	if err != nil {
		sc.kill()
		return
	}
	s.bumpWritten(last)
}

// writeBuf writes one enveloped buffer, applying the chaos schedule: a
// drop means the bytes vanish (the buffer stays retained; the
// receiver-side gap or the ack timeout triggers the resend), a sever
// kills the connection. Reports whether the connection survived.
func (s *tcpSender) writeBuf(sc *senderConn, b *sendBuf, retrans bool) bool {
	if s.cfg.Chaos != nil {
		switch s.judge() {
		case chaosDrop:
			s.bumpWritten(b.last) // outstanding: keeps the RTO armed
			return true
		case chaosSever:
			sc.kill()
			return false
		}
	}
	n, err := sc.c.Write(b.b)
	s.stats.addBytes(int64(n))
	if retrans {
		s.stats.addRetrans(int64(b.last-b.first+1), int64(len(b.b)))
	}
	if err != nil {
		sc.kill()
		return false
	}
	s.bumpWritten(b.last)
	return true
}

// judge draws the chaos verdict on the link's next buffer write and
// counts it. Only the writer goroutine calls it (through writeBuf and
// writeFin), so the write index needs no lock.
func (s *tcpSender) judge() int {
	s.chaosWrites++
	v := s.cfg.Chaos.verdict(s.link, s.chaosWrites)
	s.stats.addChaos(v)
	return v
}

// writeFin ships the FIN record announcing the final sequence number.
func (s *tcpSender) writeFin(sc *senderConn) {
	var rec [1 + binary.MaxVarintLen64]byte
	rec[0] = finMarker
	n := 1 + binary.PutUvarint(rec[1:], s.finSeq)
	if s.cfg.Chaos != nil {
		switch s.judge() {
		case chaosDrop:
			s.finWritten = true // vanished in flight: the RTO re-sends it
			s.bumpWritten(s.finSeq)
			return
		case chaosSever:
			sc.kill()
			return
		}
	}
	if _, err := sc.c.Write(rec[:n]); err != nil {
		sc.kill()
		return
	}
	s.finWritten = true
	s.bumpWritten(s.finSeq)
}

// reconnect closes the dead connection, redials with jittered
// exponential backoff within the configured budget, and retransmits
// everything past the last cumulative ack (plus the FIN if it was
// already sent). Exhausting either budget — total reconnects or one
// episode's dial attempts — is a hard link error: the run fails
// loudly, never a short count.
func (s *tcpSender) reconnect(old *senderConn) *senderConn {
	if old != nil {
		old.kill()
	}
	if s.finWritten && s.rs.finished.Load() {
		// The receiver already decoded the FIN, so every frame through
		// it was delivered in order — only the final ack died with the
		// connection. Confirm delivery through the shared receive state
		// instead of redialing: this closes the teardown race where the
		// consumer observes done (and the transport starts closing)
		// before the last ack crosses back.
		s.ackTo(s.finSeq)
		return nil
	}
	if s.cfg.MaxReconnects < 0 {
		s.fail(fmt.Errorf("transport: link %s: connection lost and reconnection is disabled", s.name))
		return nil
	}
	if s.reconnects >= s.cfg.MaxReconnects {
		s.fail(fmt.Errorf("transport: link %s: reconnect budget exhausted after %d reconnects", s.name, s.reconnects))
		return nil
	}
	s.reconnects++
	s.stats.addReconnect()
	t0 := time.Now()
	wait := s.cfg.RedialBackoff
	maxWait := s.cfg.RedialBackoff * 64
	var conn net.Conn
	for attempt := 1; ; attempt++ {
		if s.t.closed.Load() {
			s.fail(ErrClosed)
			return nil
		}
		c, err := s.dialHello()
		if err == nil {
			var ack uint64
			if ack, err = s.readHandshakeAck(c); err == nil {
				s.ackTo(ack)
				conn = c
				break
			}
			c.Close()
		}
		if attempt >= s.cfg.RedialAttempts {
			s.fail(fmt.Errorf("transport: link %s: redial failed after %d attempts: %w", s.name, attempt, err))
			return nil
		}
		s.rng = mix64(s.rng + 0x9e3779b97f4a7c15)
		half := wait / 2
		time.Sleep(half + time.Duration(s.rng%uint64(half+1)))
		if wait < maxWait {
			wait *= 2
		}
	}
	s.stats.addOutage(time.Since(t0).Seconds())
	sc := &senderConn{c: conn}
	go s.ackLoop(sc)
	// The next freshly encoded frame restarts the dictionary epoch with
	// a reset frame — the documented resync point: post-reconnect
	// frames never depend on dictionary context from before the outage.
	// Retransmitted frames replay their original bytes; the receiver's
	// decoder re-walks them in sequence order (duplicates are skipped
	// without touching it), so its dictionary state stays consistent.
	s.needReset.Store(true)
	resume := s.acked.Load()
	for _, b := range s.retained {
		if b.last <= resume {
			continue // already delivered: the writer loop recycles it
		}
		if !s.writeBuf(sc, b, true) {
			return sc // died again: the next loop iteration retries
		}
	}
	if s.finWritten {
		s.writeFin(sc)
	}
	return sc
}

// rotate hands the active buffer to the writer stage and takes a fresh
// one from the pool. Blocking on the free channel is the resend
// window's backpressure: every buffer is either free, in flight to the
// writer, or retained awaiting its ack.
func (s *tcpSender) rotate() {
	s.handed = s.cur.last
	s.out <- s.cur
	s.cur = <-s.free
}

// writerIdle reports that the writer has written (or chaos-dropped)
// every buffer handed to it and that at least half the pool is free:
// handing the active buffer over now puts its frames on the wire at
// once, and cannot leave rotate waiting on the pool.
func (s *tcpSender) writerIdle() bool {
	return s.written.Load() >= s.handed && 2*len(s.free) >= cap(s.free)
}

// SendSlab implements Sender: stamp the next sequence number, encode
// the slab as one frame into the active buffer, and rotate the buffer
// to the writer once it crosses the coalescing threshold or the writer
// is idle (writerIdle). The sequence envelope is written inline, so a
// retransmission later replays the buffer bytes verbatim.
func (s *tcpSender) SendSlab(msgs []Msg) error {
	if s.closed {
		return ErrClosed
	}
	if err := s.checkErr(); err != nil {
		return err
	}
	if s.needReset.CompareAndSwap(true, false) {
		s.enc.ResetEpoch()
	}
	st0 := s.enc.Stats()
	b := s.cur
	seq := s.nextSeq
	s.nextSeq++
	b.b = binary.AppendUvarint(b.b, seq)
	b.b = s.enc.AppendFrame(b.b, msgs)
	if b.first == 0 {
		b.first = seq
	}
	b.last = seq
	st1 := s.enc.Stats()
	s.stats.addFrames(1)
	s.stats.addMsgs(int64(len(msgs)))
	s.stats.addDict(int64(st1.Hits-st0.Hits), int64(st1.Resets-st0.Resets))
	if len(b.b) >= coalesceBytes || s.writerIdle() {
		s.rotate()
	}
	return s.checkErr()
}

// Flush implements Sender: it hands any coalesced bytes to the writer
// stage, whether or not the writer is idle — what SendSlab left
// coalescing behind a busy writer or a half-spent pool. The write
// itself completes asynchronously (per-link ordering is preserved; a
// later SendSlab/Flush/Close surfaces any error), so a flush never
// stalls the encoder on the kernel.
func (s *tcpSender) Flush() error {
	if s.closed {
		return ErrClosed
	}
	if err := s.checkErr(); err != nil {
		return err
	}
	if len(s.cur.b) > 0 {
		s.rotate()
	}
	return s.checkErr()
}

// Close implements Sender: flush, hand the writer the FIN sequence,
// and wait for the writer to exit — which it does only once the FIN
// (and therefore every frame before it) is acked, or the link goes
// hard-error. A clean Close is an end-to-end delivery guarantee.
func (s *tcpSender) Close() error {
	if s.closed {
		return s.checkErr()
	}
	s.closed = true
	s.closing.Store(true)
	if s.cur != nil && len(s.cur.b) > 0 {
		s.out <- s.cur
		s.cur = nil
	}
	s.finSeq = s.nextSeq
	close(s.out)
	<-s.done
	return s.checkErr()
}

// linkStats is the per-link telemetry bundle; a zero value (nil
// registry) makes every add a no-op. The chaos counters are registered
// only on a transport with a fault schedule.
type linkStats struct {
	bytes, rxBytes, frames, msgs         *telemetry.Counter
	flushes, stalls, hits, resets        *telemetry.Counter
	reconnects                           *telemetry.Counter
	retransFrames, retransBytes          *telemetry.Counter
	dupMsgs                              *telemetry.Counter
	outageSec                            *telemetry.Gauge
	chaosWrites, chaosDrops, chaosSevers *telemetry.Counter
}

func newLinkStats(reg *telemetry.Registry, name string, chaos bool) *linkStats {
	if reg == nil {
		return &linkStats{}
	}
	l := telemetry.L("link", name)
	st := &linkStats{
		bytes:         reg.Counter("transport_tx_bytes_total", l),
		rxBytes:       reg.Counter("transport_rx_bytes_total", l),
		frames:        reg.Counter("transport_frames_total", l),
		msgs:          reg.Counter("transport_tx_msgs_total", l),
		flushes:       reg.Counter("transport_flushes_total", l),
		stalls:        reg.Counter("transport_send_stalls_total", l),
		hits:          reg.Counter("transport_dict_hits_total", l),
		resets:        reg.Counter("transport_dict_resets_total", l),
		reconnects:    reg.Counter("transport_reconnects_total", l),
		retransFrames: reg.Counter("transport_retransmit_frames_total", l),
		retransBytes:  reg.Counter("transport_retransmit_bytes_total", l),
		dupMsgs:       reg.Counter("transport_dup_msgs_dropped_total", l),
		outageSec:     reg.Gauge("transport_outage_seconds", l),
	}
	if chaos {
		st.chaosWrites = reg.Counter("transport_chaos_writes_total", l)
		st.chaosDrops = reg.Counter("transport_chaos_drops_total", l)
		st.chaosSevers = reg.Counter("transport_chaos_severs_total", l)
	}
	return st
}

func (s *linkStats) addBytes(n int64) {
	if s.bytes != nil {
		s.bytes.Add(n)
	}
}

func (s *linkStats) addRxBytes(n int64) {
	if s.rxBytes != nil {
		s.rxBytes.Add(n)
	}
}

func (s *linkStats) addFrames(n int64) {
	if s.frames != nil {
		s.frames.Add(n)
	}
}

func (s *linkStats) addMsgs(n int64) {
	if s.msgs != nil {
		s.msgs.Add(n)
	}
}

func (s *linkStats) addFlushes(n int64) {
	if s.flushes != nil {
		s.flushes.Add(n)
	}
}

func (s *linkStats) addStall() {
	if s.stalls != nil {
		s.stalls.Inc()
	}
}

func (s *linkStats) addDict(hits, resets int64) {
	if s.hits != nil && hits > 0 {
		s.hits.Add(hits)
	}
	if s.resets != nil && resets > 0 {
		s.resets.Add(resets)
	}
}

func (s *linkStats) addReconnect() {
	if s.reconnects != nil {
		s.reconnects.Inc()
	}
}

func (s *linkStats) addRetrans(frames, bytes int64) {
	if s.retransFrames != nil {
		s.retransFrames.Add(frames)
		s.retransBytes.Add(bytes)
	}
}

func (s *linkStats) addDupMsgs(n int64) {
	if s.dupMsgs != nil && n > 0 {
		s.dupMsgs.Add(n)
	}
}

func (s *linkStats) addOutage(sec float64) {
	if s.outageSec != nil {
		s.outageSec.Add(sec)
	}
}

func (s *linkStats) addChaos(verdict int) {
	if s.chaosWrites == nil {
		return
	}
	s.chaosWrites.Inc()
	switch verdict {
	case chaosDrop:
		s.chaosDrops.Inc()
	case chaosSever:
		s.chaosSevers.Inc()
	}
}

package transport

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"slb/internal/ring"
	"slb/internal/telemetry"
)

// within fails the test with every goroutine's stack if done does not
// close in time: a stranded waiter must show up as a failure, not a
// hang.
func within(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("%s: still blocked after 10s\n%s", what, buf[:runtime.Stack(buf, true)])
	}
}

// parkedReceiver drains l the way the engine's consumers do — poll,
// then park on a registered Parker — on its own goroutine. got receives
// the running count after every slab; done closes when RecvSlab reports
// done.
type parkedReceiver struct {
	got  chan int
	done chan struct{}
}

func startParkedReceiver(l *Link) *parkedReceiver {
	// got is sized for every slab these tests send: the receiver must
	// never block on its observer.
	r := &parkedReceiver{got: make(chan int, 1024), done: make(chan struct{})}
	p := ring.NewParker()
	l.SetRecvWaiter(p)
	go func() {
		defer close(r.done)
		buf := make([]Msg, 64)
		total := 0
		for {
			n, done := l.RecvSlab(buf)
			if done {
				return
			}
			if n == 0 {
				p.Idle()
				continue
			}
			p.Reset()
			total += n
			r.got <- total
		}
	}()
	return r
}

// waitFor blocks until the receiver has seen n messages.
func (r *parkedReceiver) waitFor(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case got := <-r.got:
			if got >= n {
				return
			}
		case <-deadline:
			t.Fatalf("receiver never saw %d messages", n)
		}
	}
}

func someMsgs(n int) []Msg {
	msgs := make([]Msg, n)
	for i := range msgs {
		msgs[i] = Msg{Dig: uint64(i%5) + 1, Key: "k", Weight: 1}
	}
	return msgs
}

// TestParkedReceiverSeesHardFailure: a consumer parked on a link whose
// connection is severed with reconnection disabled must wake, drain and
// observe done with the link's error set.
func TestParkedReceiverSeesHardFailure(t *testing.T) {
	cfg := faultTuning()
	cfg.MaxReconnects = -1
	cfg.ResendTimeout = 2 * time.Second // only the sever may kill the link
	reg := telemetry.NewRegistry()
	tr := chaosTCP(t, reg, cfg, ChaosConfig{Seed: 3, SeverEvery: 5})
	defer tr.Close()
	l, err := tr.Open("s0>w0", 256)
	if err != nil {
		t.Fatal(err)
	}
	r := startParkedReceiver(l)
	// Four clean writes the receiver drains and then parks behind; the
	// fifth is the sever.
	for i := 0; i < 4; i++ {
		if err := l.SendSlab(someMsgs(10)); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	r.waitFor(t, 40)
	var sendErr error
	for i := 0; i < 1000 && sendErr == nil; i++ {
		if sendErr = l.SendSlab(someMsgs(10)); sendErr == nil {
			sendErr = l.Flush()
		}
	}
	if sendErr == nil {
		t.Fatal("sender survived a sever with reconnection disabled")
	}
	within(t, "parked receiver after a hard link failure", r.done)
	if l.Err() == nil {
		t.Fatal("link reports no error")
	}
	if writes, _, severs := chaosCounts(reg, "s0>w0"); writes != 5 || severs != 1 {
		t.Fatalf("chaos judged %v writes and severed %v times, want the fifth write severed", writes, severs)
	}
}

// TestParkedReceiverSeesTransportClose: closing the transport while the
// sender is still open must release a consumer parked on the link, on
// both backends.
func TestParkedReceiverSeesTransportClose(t *testing.T) {
	tcp, err := NewTCP(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   Transport
	}{{"memory", NewMemory()}, {"tcp", tcp}} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := tc.tr.Open("s0>w0", 64)
			if err != nil {
				t.Fatal(err)
			}
			r := startParkedReceiver(l)
			if err := l.SendSlab(someMsgs(20)); err != nil {
				t.Fatal(err)
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			r.waitFor(t, 20) // everything sent is in; the receiver now waits for more
			closed := make(chan struct{})
			go func() { tc.tr.Close(); close(closed) }()
			within(t, "Close with the sender never closed", closed)
			within(t, "parked receiver after Close", r.done)
		})
	}
}

// TestMemorySendParkedOnFullSeesClose: a sender parked on a full memory
// link nobody drains returns ErrClosed when the transport closes.
func TestMemorySendParkedOnFullSeesClose(t *testing.T) {
	tr := NewMemory()
	l, err := tr.Open("s0>w0", 4)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- l.SendSlab(someMsgs(64)) }() // 4 fit, then it waits
	for l.recv.Len() < 4 {
		runtime.Gosched()
	}
	tr.Close()
	select {
	case err := <-sent:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("SendSlab on a closed full link returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sender still parked on the full link after Close")
	}
}

// TestServeParkedOnFullRingSeesClose: with nobody consuming, the serve
// goroutine fills the receive ring and parks on it (timed, for its
// keep-alive acks). TCP.Close waits for serve, so it returning at all
// proves the park saw the close.
func TestServeParkedOnFullRingSeesClose(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr, err := NewTCPWithConfig(reg, TCPConfig{ResendTimeout: time.Minute}) // keep-alive far away: only Close can wake it
	if err != nil {
		t.Fatal(err)
	}
	l, err := tr.Open("s0>w0", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SendSlab(someMsgs(64)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Value("transport_send_stalls_total", telemetry.L("link", "s0>w0")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("serve never stalled on the full ring")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { tr.Close(); close(closed) }()
	within(t, "TCP.Close with serve parked on a full ring", closed)
}

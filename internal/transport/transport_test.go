package transport

import (
	"fmt"
	"testing"
	"time"

	"slb/internal/telemetry"
)

// chase pumps total messages through one link from a goroutine and
// drains them on the test goroutine, verifying order, content, and the
// done signal. Shared by both backends.
func chase(t *testing.T, l *Link, total int) {
	t.Helper()
	const slab = 57
	go func() {
		buf := make([]Msg, slab)
		sent := 0
		for sent < total {
			n := slab
			if total-sent < n {
				n = total - sent
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("key-%d", (sent+i)%33)
				buf[i] = Msg{
					Dig:    digestOf(key),
					Window: int64(sent+i) / 100,
					Weight: int64(sent + i),
					Src:    int32((sent + i) % 7),
					Key:    key,
				}
			}
			if err := l.SendSlab(buf[:n]); err != nil {
				panic(err)
			}
			sent += n
		}
		if err := l.Sender.Close(); err != nil {
			panic(err)
		}
	}()
	recv := make([]Msg, 64)
	got := 0
	deadline := time.Now().Add(20 * time.Second)
	for {
		n, done := l.RecvSlab(recv)
		for i := 0; i < n; i++ {
			m := recv[i]
			key := fmt.Sprintf("key-%d", got%33)
			want := Msg{
				Dig:    digestOf(key),
				Window: int64(got) / 100,
				Weight: int64(got),
				Src:    int32(got % 7),
				Key:    key,
			}
			if m != want {
				t.Fatalf("msg %d: got %+v want %+v", got, m, want)
			}
			got++
		}
		if done {
			break
		}
		if n == 0 && time.Now().After(deadline) {
			t.Fatalf("timed out after %d/%d messages", got, total)
		}
	}
	if got != total {
		t.Fatalf("received %d messages, want %d", got, total)
	}
}

// TestMemoryLink pins the memory backend's FIFO, content, and drain
// semantics through a slab size that wraps the ring repeatedly.
func TestMemoryLink(t *testing.T) {
	tr := NewMemory()
	defer tr.Close()
	l, err := tr.Open("s0>w0", 256)
	if err != nil {
		t.Fatal(err)
	}
	chase(t, l, 20_000)
}

// TestTCPLink runs the same exchange over a loopback TCP connection:
// framing, dictionary coding, coalescing, half-close drain — all of it
// must be invisible to the consumer.
func TestTCPLink(t *testing.T) {
	tr, err := NewTCP(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	l, err := tr.Open("s0>w0", 1024)
	if err != nil {
		t.Fatal(err)
	}
	chase(t, l, 50_000)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestMemorySteadyStateZeroAllocs is the hard allocation assertion the
// acceptance criteria require: once a memory link is warm, a
// send+receive cycle of a full slab performs zero allocations.
func TestMemorySteadyStateZeroAllocs(t *testing.T) {
	tr := NewMemory()
	defer tr.Close()
	l, err := tr.Open("s0>w0", 1024)
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]Msg, 64)
	for i := range slab {
		slab[i] = Msg{Dig: uint64(i), Key: "warm", Weight: 1}
	}
	recv := make([]Msg, 64)
	cycle := func() {
		if err := l.SendSlab(slab); err != nil {
			t.Fatal(err)
		}
		for drained := 0; drained < len(slab); {
			n, _ := l.RecvSlab(recv)
			drained += n
		}
	}
	cycle() // warm-up
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("memory transport steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTCPThroughputFloor pins the acceptance floor: ≥ 100k msgs/s
// through one loopback link in the raw regime (no consumer work).
// Loopback sustains millions/s; the floor just catches catastrophic
// framing or coalescing regressions without flaking on slow CI.
func TestTCPThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput floor needs wall-clock headroom")
	}
	tr, err := NewTCP(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	l, err := tr.Open("s0>w0", 8192)
	if err != nil {
		t.Fatal(err)
	}
	const total = 400_128 // multiple of the slab size
	slab := make([]Msg, 256)
	for i := range slab {
		key := fmt.Sprintf("key-%d", i%64)
		slab[i] = Msg{Dig: digestOf(key), Key: key, Weight: 1, Window: 3}
	}
	start := time.Now()
	go func() {
		for sent := 0; sent < total; sent += len(slab) {
			if err := l.SendSlab(slab); err != nil {
				panic(err)
			}
		}
		l.Sender.Close()
	}()
	recv := make([]Msg, 512)
	got := 0
	for {
		n, done := l.RecvSlab(recv)
		got += n
		if done {
			break
		}
	}
	elapsed := time.Since(start)
	if got != total {
		t.Fatalf("received %d, want %d", got, total)
	}
	rate := float64(total) / elapsed.Seconds()
	t.Logf("loopback TCP: %d msgs in %v (%.0f msgs/s)", total, elapsed, rate)
	if rate < 100_000 {
		t.Fatalf("loopback TCP sustained %.0f msgs/s, below the 100k floor", rate)
	}
}

// TestTCPTelemetry verifies the per-link counters land in the registry
// with the link label: frames and messages per SendSlab, dictionary
// hits once a key repeats, and both byte directions. Flush is
// asynchronous (the writer stage owns the socket), so the sender is
// closed — which drains the writer — before byte/flush counters are
// read.
func TestTCPTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr, err := NewTCP(reg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	l, err := tr.Open("w1>r0", 256)
	if err != nil {
		t.Fatal(err)
	}
	slab := []Msg{{Key: "a", Dig: 1, Weight: 2}, {Key: "b", Dig: 2, Weight: 3}}
	for i := 0; i < 2; i++ { // second slab is all dictionary hits
		if err := l.SendSlab(slab); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sender.(*tcpSender).Flush(); err != nil {
		t.Fatal(err)
	}
	recv := make([]Msg, 8)
	for got := 0; got < 2*len(slab); {
		n, _ := l.RecvSlab(recv)
		got += n
	}
	if err := l.Sender.Close(); err != nil {
		t.Fatal(err)
	}
	lab := telemetry.L("link", "w1>r0")
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"transport_frames_total":      2,
		"transport_tx_msgs_total":     4,
		"transport_dict_hits_total":   2,
		"transport_dict_resets_total": 0,
	} {
		if v := snap.Value(name, lab); v != want {
			t.Fatalf("%s = %v, want %v", name, v, want)
		}
	}
	if v := snap.Value("transport_flushes_total", lab); v < 1 {
		t.Fatalf("transport_flushes_total = %v, want >= 1", v)
	}
	txBytes := snap.Value("transport_tx_bytes_total", lab)
	if txBytes <= 0 {
		t.Fatalf("transport_tx_bytes_total = %v, want > 0", txBytes)
	}
	if v := snap.Value("transport_rx_bytes_total", lab); v != txBytes {
		t.Fatalf("transport_rx_bytes_total = %v, want %v (all tx bytes received)", v, txBytes)
	}
}

// TestTCPSenderPipelineStress drives the encoder/writer split hard:
// per link, the producer goroutine interleaves SendSlab and Flush while
// the writer goroutine owns the socket and the reader goroutine decodes
// — the race detector (CI runs this package under -race) checks the
// stage handoff, and the drain check proves no slab is lost or
// reordered across buffer rotations and the Close drain.
func TestTCPSenderPipelineStress(t *testing.T) {
	tr, err := NewTCP(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const links, rounds = 4, 300
	done := make(chan error, links)
	for li := 0; li < links; li++ {
		l, err := tr.Open(fmt.Sprintf("s%d>w0", li), 512)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			slab := make([]Msg, 64)
			for r := 0; r < rounds; r++ {
				for i := range slab {
					key := fmt.Sprintf("key-%d", (r*len(slab)+i)%997)
					slab[i] = Msg{Dig: digestOf(key), Key: key, Weight: int64(r), Window: int64(r) / 10}
				}
				if err := l.SendSlab(slab); err != nil {
					done <- err
					return
				}
				if r%7 == 0 {
					if err := l.Sender.Flush(); err != nil {
						done <- err
						return
					}
				}
			}
			done <- l.Sender.Close()
		}()
		go func() {
			recv := make([]Msg, 256)
			got := 0
			for {
				n, fin := l.RecvSlab(recv)
				for i := 0; i < n; i++ {
					key := fmt.Sprintf("key-%d", got%997)
					if recv[i].Key != key || recv[i].Dig != digestOf(key) {
						done <- fmt.Errorf("msg %d: key %q dig %d, want %q %d", got, recv[i].Key, recv[i].Dig, key, digestOf(key))
						return
					}
					got++
				}
				if fin {
					break
				}
			}
			if got != rounds*64 {
				done <- fmt.Errorf("drained %d msgs, want %d", got, rounds*64)
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 2*links; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// recvWithin polls l until it has received n messages, failing the test
// if they do not all arrive within d.
func recvWithin(t *testing.T, l *Link, n int, d time.Duration) {
	t.Helper()
	recv := make([]Msg, 64)
	deadline := time.Now().Add(d)
	for got := 0; got < n; {
		k, _ := l.RecvSlab(recv)
		got += k
		if k == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("received %d/%d messages within %v", got, n, d)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestTCPIdleLinkSendsWithoutFlush: on an idle link the writer has
// nothing outstanding, so one small SendSlab must reach the receiver
// with no Flush — it may not sit in the coalescing buffer until the
// producer flushes or closes.
func TestTCPIdleLinkSendsWithoutFlush(t *testing.T) {
	tr, err := NewTCP(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	l, err := tr.Open("s0>w0", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SendSlab(someMsgs(3)); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, l, 3, 2*time.Second)
	if err := l.Sender.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPHalfSpentPoolKeepsCoalescing pins both conditions of the idle
// handover: with the writer caught up but fewer than half the pool's
// buffers free, a sub-threshold SendSlab keeps coalescing, and so it
// does with the pool free but the writer behind; with both conditions
// met again, the next SendSlab hands the buffer over.
func TestTCPHalfSpentPoolKeepsCoalescing(t *testing.T) {
	tr, err := NewTCP(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	l, err := tr.Open("s0>w0", 256)
	if err != nil {
		t.Fatal(err)
	}
	s := l.Sender.(*tcpSender)
	// Settle: one slab written and acked, every buffer but the active
	// one back in the pool.
	if err := l.SendSlab(someMsgs(3)); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, l, 3, 2*time.Second)
	for deadline := time.Now().Add(2 * time.Second); len(s.free) < cap(s.free)-1 || s.written.Load() < s.handed; {
		if time.Now().After(deadline) {
			t.Fatalf("pool never settled: %d/%d free, written %d of %d", len(s.free), cap(s.free), s.written.Load(), s.handed)
		}
		time.Sleep(50 * time.Microsecond)
	}

	taken := make([]*sendBuf, cap(s.free)/2)
	for i := range taken {
		taken[i] = <-s.free
	}
	if err := l.SendSlab(someMsgs(3)); err != nil {
		t.Fatal(err)
	}
	if len(s.cur.b) == 0 {
		t.Fatalf("half-spent pool (%d/%d free): sub-threshold slab was handed over", len(s.free), cap(s.free))
	}
	for _, b := range taken {
		s.free <- b
	}
	s.handed++ // as if the writer had not yet written its last buffer
	if err := l.SendSlab(someMsgs(3)); err != nil {
		t.Fatal(err)
	}
	if len(s.cur.b) == 0 {
		t.Fatal("writer behind: sub-threshold slab was handed over")
	}
	s.handed--
	if err := l.SendSlab(someMsgs(3)); err != nil {
		t.Fatal(err)
	}
	if len(s.cur.b) != 0 {
		t.Fatalf("idle writer, %d/%d free: %d bytes kept coalescing", len(s.free), cap(s.free), len(s.cur.b))
	}
	recvWithin(t, l, 9, 2*time.Second)
	if err := l.Sender.Close(); err != nil {
		t.Fatal(err)
	}
}

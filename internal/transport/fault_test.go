package transport

import (
	"fmt"
	"testing"
	"time"

	"slb/internal/telemetry"
)

// faultTuning shrinks the delivery timers so fault tests recover in
// milliseconds instead of the production defaults.
func faultTuning() TCPConfig {
	return TCPConfig{
		ResendTimeout:  20 * time.Millisecond,
		RedialBackoff:  100 * time.Microsecond,
		MaxReconnects:  1 << 16,
		RedialAttempts: 20,
	}
}

// chaosTCP opens a TCP transport with delivery tuning cfg under the
// fault schedule ch; per-link telemetry lands in reg when it is non-nil.
func chaosTCP(t *testing.T, reg *telemetry.Registry, cfg TCPConfig, ch ChaosConfig) *TCP {
	t.Helper()
	cfg.Chaos = &ch
	tr, err := NewTCPWithConfig(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// chaosCounts reads one link's chaos counters from reg.
func chaosCounts(reg *telemetry.Registry, link string) (writes, drops, severs float64) {
	snap, lab := reg.Snapshot(), telemetry.L("link", link)
	return snap.Value("transport_chaos_writes_total", lab),
		snap.Value("transport_chaos_drops_total", lab),
		snap.Value("transport_chaos_severs_total", lab)
}

// TestChaosSchedulePinned pins the first 256 verdicts of two schedules
// ('.' pass, 'D' drop, 'S' sever) on the link names the engine uses, so
// a change to the mixer, its constants or the write index shows here
// before it silently reshapes every fault test.
func TestChaosSchedulePinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  ChaosConfig
		link string
		want string
	}{
		{ChaosConfig{Seed: 23, DropOneIn: 4, SeverEvery: 2}, "s0>w0", "" +
			".S.SDS.S.SDSDSDS.S.S.S.SDS.S.S.S.SDS.S.S.S.S.SDS.S.S.S.S.S.S.S.S" +
			".S.S.SDS.S.SDS.S.S.SDSDS.SDS.S.SDS.S.S.S.S.SDS.S.S.SDS.S.SDS.S.S" +
			".SDS.S.SDS.SDSDS.S.S.S.S.S.S.S.SDSDS.SDS.S.S.S.S.S.S.S.S.S.S.S.S" +
			".S.S.S.SDS.SDS.S.S.SDS.S.SDS.S.S.SDSDS.SDSDS.S.S.S.SDSDS.S.SDS.S"},
		{ChaosConfig{Seed: 42, DropOneIn: 3, SeverEvery: 13}, "w1>r0", "" +
			".D...D..D...S.DDD.D......S........DD..S......D..D.DSD..D.DD....." +
			"S.D....D.....S.....D..D...SD.........D.S...D..D..D..S..D.D.D.DD." +
			".S...D...D...DSD..D.DDDDDD.S.D.....D....S.D.......DD.S...D..D.D." +
			"..S....D.D.DDD.S............S...DD.......SD.D.D.......SD..D.D..."},
	} {
		got := make([]byte, len(tc.want))
		for i := range got {
			got[i] = ".DS"[tc.cfg.verdict(hashName(tc.link), uint64(i+1))]
		}
		if string(got) != tc.want {
			t.Errorf("%+v on %s:\n got %s\nwant %s", tc.cfg, tc.link, got, tc.want)
		}
	}
}

// pumpFlushed sends total messages in slabs of slabSize, flushing after
// every slab so each frame is its own buffer write — which makes the
// chaos schedule's write counter line up with frame boundaries.
func pumpFlushed(l *Link, total, slabSize int) error {
	buf := make([]Msg, slabSize)
	sent := 0
	for sent < total {
		n := slabSize
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
			return err
		}
		if err := l.Flush(); err != nil {
			return err
		}
		sent += n
	}
	return l.Sender.Close()
}

// drainVerify drains the link on the calling goroutine and verifies
// order, content and count — bit-equality with the fault-free stream.
func drainVerify(t *testing.T, l *Link, total int) {
	t.Helper()
	recv := make([]Msg, 64)
	got := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		n, done := l.RecvSlab(recv)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key-%d", got%33)
			want := Msg{
				Dig:    digestOf(key),
				Window: int64(got) / 100,
				Weight: int64(got),
				Src:    int32(got % 7),
				Key:    key,
			}
			if recv[i] != want {
				t.Fatalf("msg %d: got %+v want %+v", got, recv[i], want)
			}
			got++
		}
		if done {
			break
		}
		if n == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("timed out after %d/%d messages", got, total)
			}
			// Yield while idle: on small GOMAXPROCS a busy poll starves
			// the reconnect machinery this test is exercising.
			time.Sleep(50 * time.Microsecond)
		}
	}
	if got != total {
		t.Fatalf("received %d messages, want %d", got, total)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("link error after clean run: %v", err)
	}
}

// TestTCPSeverEveryFrameBoundary kills the connection at every frame
// boundary of a small run — run k severs on every k-th buffer write,
// covering the first/middle/last positions and every retransmission
// alignment — and requires the delivered stream to stay bit-equal to
// the fault-free one.
func TestTCPSeverEveryFrameBoundary(t *testing.T) {
	const total, slab = 24 * 57, 57 // 24 frames, one per write
	for k := 2; k <= 16; k++ {
		k := k
		t.Run(fmt.Sprintf("sever@%d", k), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tr := chaosTCP(t, reg, faultTuning(), ChaosConfig{Seed: uint64(k), SeverEvery: k})
			defer tr.Close()
			l, err := tr.Open("s0>w0", 256)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				if err := pumpFlushed(l, total, slab); err != nil {
					panic(err)
				}
			}()
			drainVerify(t, l, total)
			if writes, _, severs := chaosCounts(reg, "s0>w0"); severs == 0 {
				t.Fatalf("chaos severed nothing in %v writes", writes)
			}
		})
	}
}

// TestTCPChaosDropRecovers mixes drops and severs on one link and
// requires bit-equal delivery, a ≥1%-of-writes drop rate, and the
// retransmission telemetry to account for the recovery.
func TestTCPChaosDropRecovers(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := chaosTCP(t, reg, faultTuning(), ChaosConfig{Seed: 42, DropOneIn: 3, SeverEvery: 13})
	defer tr.Close()
	l, err := tr.Open("s0>w0", 256)
	if err != nil {
		t.Fatal(err)
	}
	const total, slab = 300 * 19, 19
	go func() {
		if err := pumpFlushed(l, total, slab); err != nil {
			panic(err)
		}
	}()
	drainVerify(t, l, total)
	writes, drops, severs := chaosCounts(reg, "s0>w0")
	if drops == 0 || severs == 0 {
		t.Fatalf("chaos injected nothing: writes=%v drops=%v severs=%v", writes, drops, severs)
	}
	if 100*drops < writes {
		t.Fatalf("dropped %v of %v writes, want >= 1%%", drops, writes)
	}
	lab := telemetry.L("link", "s0>w0")
	snap := reg.Snapshot()
	if v := snap.Value("transport_reconnects_total", lab); v < 1 {
		t.Fatalf("transport_reconnects_total = %v, want >= 1", v)
	}
	if v := snap.Value("transport_retransmit_frames_total", lab); v < 1 {
		t.Fatalf("transport_retransmit_frames_total = %v, want >= 1", v)
	}
	if v := snap.Value("transport_retransmit_bytes_total", lab); v < 1 {
		t.Fatalf("transport_retransmit_bytes_total = %v, want >= 1", v)
	}
}

// TestTCPNoSilentLoss pins the failure contract with reconnection
// disabled: the first sever must surface a hard error on the sender
// AND on the link — never a clean done with a short count.
func TestTCPNoSilentLoss(t *testing.T) {
	cfg := faultTuning()
	cfg.MaxReconnects = -1
	tr := chaosTCP(t, nil, cfg, ChaosConfig{Seed: 3, SeverEvery: 3})
	defer tr.Close()
	l, err := tr.Open("s0>w0", 256)
	if err != nil {
		t.Fatal(err)
	}
	const total, slab = 200 * 19, 19
	sendErr := make(chan error, 1)
	go func() { sendErr <- pumpFlushed(l, total, slab) }()

	recv := make([]Msg, 64)
	got := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		n, done := l.RecvSlab(recv)
		got += n
		if done {
			break
		}
		if n == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no done signal: link failure did not close the receive ring")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	if err := <-sendErr; err == nil {
		t.Fatal("sender completed cleanly across a sever with reconnection disabled")
	}
	if l.Err() == nil {
		t.Fatal("link reports no error after unrecoverable sever")
	}
	if tr.Err() == nil {
		t.Fatal("transport aggregate reports no error after unrecoverable sever")
	}
	if got >= total {
		t.Fatalf("received %d/%d messages through a link that severs every 3rd write with reconnection disabled", got, total)
	}
}

// TestTCPReconnectSendStress races concurrent SendSlab/Flush against
// chaos-driven reconnects on several links at once; CI runs this
// package under -race, so the reconnect takeover (writer, ack reader,
// serve replay) is checked for unsynchronized state.
func TestTCPReconnectSendStress(t *testing.T) {
	tr := chaosTCP(t, nil, faultTuning(), ChaosConfig{Seed: 11, DropOneIn: 5, SeverEvery: 9})
	defer tr.Close()
	const links, rounds = 4, 200
	done := make(chan error, 2*links)
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
				if r%3 == 0 {
					if err := l.Flush(); err != nil {
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
				if n == 0 {
					time.Sleep(50 * time.Microsecond)
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
}

// TestTCPPerLinkErrorScoping pins the blast-radius fix: one link dying
// an unrecoverable death surfaces on that link (and the transport
// aggregate) while a sibling link on the same transport keeps passing
// traffic with a nil Err.
func TestTCPPerLinkErrorScoping(t *testing.T) {
	cfg := faultTuning()
	cfg.MaxReconnects = -1 // first sever on the busy link is fatal
	// With reconnection disabled a spurious retransmission timeout is
	// fatal too; a generous RTO keeps scheduler hiccups from tripping
	// it — the sever verdict kills the connection directly, so the bad
	// link's error still surfaces immediately.
	cfg.ResendTimeout = 2 * time.Second
	// Sever on the 50th write: only the chatty link ever gets there.
	tr := chaosTCP(t, nil, cfg, ChaosConfig{Seed: 9, SeverEvery: 50})
	defer tr.Close()
	bad, err := tr.Open("bad>w0", 256)
	if err != nil {
		t.Fatal(err)
	}
	good, err := tr.Open("good>w0", 256)
	if err != nil {
		t.Fatal(err)
	}

	// Drive the bad link until its sever kills it.
	slab := []Msg{{Key: "x", Dig: 1, Weight: 1}}
	var sendErr error
	for i := 0; i < 5000; i++ {
		if sendErr = bad.SendSlab(slab); sendErr == nil {
			sendErr = bad.Flush()
		}
		if sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("bad link never failed despite sever with reconnection disabled")
	}
	if bad.Err() == nil {
		t.Fatal("bad link reports no error")
	}
	if tr.Err() == nil {
		t.Fatal("transport aggregate missed the bad link's error")
	}

	// The sibling link is untouched: full chase, nil error.
	chase(t, good, 2000) // 2000 msgs ≈ 36 writes < 50: no sever
	if err := good.Err(); err != nil {
		t.Fatalf("good link poisoned by sibling failure: %v", err)
	}
}

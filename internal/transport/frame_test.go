package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// digestOf mimics the dataplane's invariant that a digest is a pure
// function of its key (FNV-1a — the codec dictionary relies on it).
// Watermark ticks carry no key and a zero digest, so f("") = 0.
func digestOf(key string) uint64 {
	if key == "" {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}

// randMsgs builds a deterministic pseudo-random slab exercising every
// field range: negative windows/weights/src, full 64-bit digests and
// values, repeated keys (dictionary hits), empty keys, zero and
// nonzero emits, constant and mixed srcs.
func randMsgs(seed uint64, n int) []Msg {
	rng := seed
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng
	}
	msgs := make([]Msg, n)
	for i := range msgs {
		key := fmt.Sprintf("key-%d", next()%64)
		if next()%16 == 0 {
			key = ""
		}
		m := Msg{
			Dig:    digestOf(key),
			Window: int64(next()) >> (next() % 40),
			Weight: int64(next()) >> (next() % 40),
			Val0:   next(),
			Val1:   next(),
			Emit:   int64(next()) >> (next() % 40),
			Src:    int32(next()),
			Key:    key,
		}
		if next()%4 == 0 {
			m.Emit = 0 // exercise the sparse emit column's gaps
		}
		if next()%8 == 0 {
			m.Val0, m.Val1 = 0, 0
		}
		msgs[i] = m
	}
	return msgs
}

// decodeWholeFrame strips the length prefix and decodes.
func decodeWholeFrame(t *testing.T, dec *Decoder, frame []byte, dst []Msg) []Msg {
	t.Helper()
	payloadLen, n := binary.Uvarint(frame)
	if n <= 0 || int(payloadLen) != len(frame)-n {
		t.Fatalf("bad length prefix")
	}
	got, err := dec.DecodeFrame(frame[n:], dst)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// TestFrameRoundTrip is the property test: arbitrary slabs survive
// encode→decode bit-exactly across many frames on one connection (so
// the persistent-dictionary reference path is exercised heavily), at
// assorted slab sizes including empty, with every optional column
// present and absent.
func TestFrameRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	for trial, size := range []int{0, 1, 2, 7, 64, 500, 1} {
		msgs := randMsgs(uint64(trial)*977+5, size)
		frame := enc.AppendFrame(nil, msgs)
		got := decodeWholeFrame(t, &dec, frame, nil)
		if len(got) != len(msgs) {
			t.Fatalf("trial %d: %d msgs decoded, want %d", trial, len(got), len(msgs))
		}
		for i := range msgs {
			if got[i] != msgs[i] {
				t.Fatalf("trial %d msg %d: got %+v want %+v", trial, i, got[i], msgs[i])
			}
		}
	}
	// Uniform-field slabs hit the all-zero/constant column elisions.
	for _, m := range []Msg{
		{Key: "k", Dig: digestOf("k")},
		{Key: "k", Dig: digestOf("k"), Weight: 1, Src: 3, Window: 7},
		{Src: -1, Window: 5}, // watermark-tick shape
	} {
		slab := make([]Msg, 33)
		for i := range slab {
			slab[i] = m
		}
		frame := enc.AppendFrame(nil, slab)
		got := decodeWholeFrame(t, &dec, frame, nil)
		for i := range slab {
			if got[i] != slab[i] {
				t.Fatalf("uniform slab msg %d: got %+v want %+v", i, got[i], slab[i])
			}
		}
	}
}

// TestFrameDictionaryEpochReset pins the epoch-reset protocol: pushing
// more distinct keys than frameDictMax forces the encoder to start new
// epochs, the decoder follows every reset bit-exactly, and hot keys
// re-enter the fresh dictionary (the stream keeps decoding after any
// number of resets).
func TestFrameDictionaryEpochReset(t *testing.T) {
	var enc Encoder
	var dec Decoder
	const chunk = 1024
	msgs := make([]Msg, chunk)
	var got []Msg
	sent := 0
	for sent < 3*frameDictMax {
		for i := range msgs {
			key := fmt.Sprintf("k%d", sent+i)
			if i%8 == 0 {
				key = "hot" // a recurring key that re-enters after each reset
			}
			msgs[i] = Msg{Key: key, Dig: digestOf(key), Weight: 1}
		}
		frame := enc.AppendFrame(nil, msgs)
		got = decodeWholeFrame(t, &dec, frame, got[:0])
		for i := range got {
			if got[i].Key != msgs[i].Key || got[i].Dig != msgs[i].Dig {
				t.Fatalf("msg %d: got key %q dig %d, want %q %d", sent+i, got[i].Key, got[i].Dig, msgs[i].Key, msgs[i].Dig)
			}
		}
		sent += chunk
	}
	st := enc.Stats()
	if st.Resets < 2 {
		t.Fatalf("encoder performed %d epoch resets, want >= 2 after %d distinct keys", st.Resets, sent)
	}
	if st.Hits == 0 {
		t.Fatalf("no dictionary hits despite the recurring hot key")
	}
	if dec.epoch != enc.epoch {
		t.Fatalf("decoder epoch %d, encoder epoch %d", dec.epoch, enc.epoch)
	}
	if len(dec.dict) > frameDictMax+chunk {
		t.Fatalf("decoder dictionary has %d entries, want <= %d", len(dec.dict), frameDictMax+chunk)
	}
}

// TestFrameEpochDesyncDetected pins the protocol's safety property: a
// decoder that misses a reset (or sees a duplicated frame) errors on
// the epoch check instead of silently delivering wrong keys.
func TestFrameEpochDesyncDetected(t *testing.T) {
	var enc Encoder
	enc.epoch = 3 // encoder several epochs ahead of the fresh decoder
	frame := enc.AppendFrame(nil, []Msg{{Key: "k", Dig: 1}})
	_, n := binary.Uvarint(frame)
	var dec Decoder
	if _, err := dec.DecodeFrame(frame[n:], nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("epoch desync decoded with err = %v, want ErrCorrupt", err)
	}
}

// TestColumnarDecodeSteadyStateZeroAllocs is the hard decode-side
// allocation assertion (mirroring TestMemorySteadyStateZeroAllocs on
// the memory link): once the dictionary is warm, a whole-frame decode
// into a reused slab performs zero allocations.
func TestColumnarDecodeSteadyStateZeroAllocs(t *testing.T) {
	var enc Encoder
	var dec Decoder
	slab := zipfSlab(7, 256)
	// Warm the dictionary on both sides, then encode a steady-state
	// frame (every key a hit).
	warm := enc.AppendFrame(nil, slab)
	decodeWholeFrame(t, &dec, warm, nil)
	frame := enc.AppendFrame(nil, slab)
	_, n := binary.Uvarint(frame)
	payload := frame[n:]
	dst := make([]Msg, 0, 2*len(slab))
	var err error
	if allocs := testing.AllocsPerRun(200, func() {
		dst, err = dec.DecodeFrame(payload, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state decode allocates %.1f allocs/op, want 0", allocs)
	}
	if len(dst) != len(slab) {
		t.Fatalf("decoded %d msgs, want %d", len(dst), len(slab))
	}
}

// TestFrameDecodeCorrupt feeds the decoder systematically damaged
// payloads — truncations at every length and targeted corruptions of
// the v2 layout — asserting an ErrCorrupt-wrapped error and no panic
// every time.
func TestFrameDecodeCorrupt(t *testing.T) {
	var enc Encoder
	msgs := randMsgs(42, 16)
	frame := enc.AppendFrame(nil, msgs)
	_, n := binary.Uvarint(frame)
	payload := frame[n:]

	for cut := 0; cut < len(payload); cut++ {
		var dec Decoder
		if _, err := dec.DecodeFrame(payload[:cut], nil); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error does not wrap ErrCorrupt: %v", cut, err)
		}
	}
	for name, bad := range map[string][]byte{
		"unterminated count": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		"oversized count":    {0xff, 0xff, 0xff, 0x7f, 0x00, 0x00},
		"missing flags":      {0x01, 0x00},
		"epoch ahead":        {0x01, 0x05, 0x20, 0x00},
		"ref out of range":   {0x01, 0x00, 0x20, 0x00},
		"zero new keys":      {0x01, 0x00, 0x22, 0x00},
		"new keys > count":   {0x01, 0x00, 0x22, 0x02},
		"truncated digest":   {0x01, 0x00, 0x22, 0x01, 0x01, 0x41},
		"huge key length":    append([]byte{0x01, 0x00, 0x22, 0x01}, 0xff, 0xff, 0xff, 0xff, 0xff),
		"empty with columns": {0x00, 0x00, 0x20},
		"empty trailing":     {0x00, 0x00, 0x00, 0x99},
	} {
		var dec Decoder
		if _, err := dec.DecodeFrame(bad, nil); err == nil {
			t.Fatalf("%s: corrupt payload %x decoded cleanly", name, bad)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error does not wrap ErrCorrupt: %v", name, err)
		}
	}
}

// FuzzFrameDecode is the decoder's panic fence: any byte string either
// decodes or errors, on a fresh decoder and again on a decoder with a
// warm dictionary (the stateful paths). Seeds cover valid columnar
// frames (with and without optional columns and a dictionary reset),
// every targeted corruption from the unit test, the empty input, and
// the desync shapes a faulty wire can produce: frames replayed from an
// older dictionary epoch (what a reconnect without the documented
// epoch reset would deliver), a post-reset frame on a cold decoder,
// and raw resync-protocol bytes — an ack record and a FIN envelope —
// landing in the frame decoder.
func FuzzFrameDecode(f *testing.F) {
	var enc Encoder
	valid := enc.AppendFrame(nil, randMsgs(7, 8))
	_, n := binary.Uvarint(valid)
	f.Add(valid[n:])
	steady := enc.AppendFrame(nil, randMsgs(7, 8)) // warm-dictionary frame
	_, n = binary.Uvarint(steady)
	f.Add(steady[n:])
	var enc2 Encoder
	single := enc2.AppendFrame(nil, []Msg{{Key: "k", Dig: 1, Window: -3, Weight: 9, Src: -1, Emit: 77}})
	_, n2 := binary.Uvarint(single)
	f.Add(single[n2:])
	var enc3 Encoder
	for i := 0; i < frameDictMax; i += 4096 { // drive enc3 to an epoch reset
		slab := make([]Msg, 4096)
		for j := range slab {
			slab[j] = Msg{Key: fmt.Sprintf("k%d", i+j), Dig: uint64(i + j)}
		}
		enc3.AppendFrame(nil, slab)
	}
	preReset := enc3.AppendFrame(nil, randMsgs(11, 6)) // old-epoch frame pre reset
	_, np := binary.Uvarint(preReset)
	enc3.ResetEpoch() // the reconnect resync point: dictionary epoch reset
	reset := enc3.AppendFrame(nil, []Msg{{Key: "fresh", Dig: 42, Weight: 1}})
	_, n3 := binary.Uvarint(reset)
	f.Add(reset[n3:])
	// Reordered-epoch desync: the pre-reset frame carries stale
	// dictionary refs and an old epoch — exactly what a reconnected
	// link would replay if the sender skipped the epoch reset.
	f.Add(preReset[np:])
	postReset := enc3.AppendFrame(nil, randMsgs(13, 5)) // warm post-reset frame
	_, n4 := binary.Uvarint(postReset)
	f.Add(postReset[n4:])
	// Resync-protocol bytes astray in the frame stream: a cumulative
	// ack record (8 bytes little-endian) and a FIN envelope
	// (uvarint 0, uvarint finSeq).
	f.Add([]byte{0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x00, 0x1b})
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x20, 0x00})
	f.Add([]byte{0x01, 0x05, 0x20, 0x00})
	f.Add([]byte{0x01, 0x00, 0x22, 0x01, 0x01, 0x41})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var dec Decoder
		msgs, err := dec.DecodeFrame(payload, nil)
		if err == nil {
			// A clean decode must round-trip back through the encoder.
			var re Encoder
			_ = re.AppendFrame(nil, msgs)
		}
		// Replay against a warm stateful decoder: dictionary entries,
		// epochs and arena interning must stay panic-free too.
		var wenc Encoder
		warm := wenc.AppendFrame(nil, randMsgs(3, 4))
		_, wn := binary.Uvarint(warm)
		var wdec Decoder
		if _, err := wdec.DecodeFrame(warm[wn:], nil); err != nil {
			t.Fatalf("warm frame failed to decode: %v", err)
		}
		_, _ = wdec.DecodeFrame(payload, nil)
	})
}

// TestEncDictMatchesMap checks the encoder's open-addressing dictionary
// against the map it replaced: ids in insertion order across growth and
// epoch clears, for mixed digests and for ones built to collide in
// their low or high bits (digest 0 included).
func TestEncDictMatchesMap(t *testing.T) {
	streams := map[string]func(i int) uint64{
		"mixed":     func(i int) uint64 { return mix64(uint64(i % 40_000)) },
		"small":     func(i int) uint64 { return uint64(i % 40_000) },
		"low-zero":  func(i int) uint64 { return uint64(i%40_000) << 40 },
		"high-only": func(i int) uint64 { return uint64(i%40_000) << 52 },
	}
	for name, dig := range streams {
		t.Run(name, func(t *testing.T) {
			var d encDict
			ref := make(map[uint64]uint32)
			for i := 0; i < 100_000; i++ {
				if d.n >= frameDictMax {
					d.clear()
					clear(ref)
				}
				k := dig(i)
				want, seen := ref[k]
				if !seen {
					want = uint32(len(ref))
					ref[k] = want
				}
				got, ok := d.lookupOrAdd(k)
				if got != want || ok != seen {
					t.Fatalf("step %d digest %#x: got id %d present=%v, want id %d present=%v", i, k, got, ok, want, seen)
				}
			}
			if len(d.slots) > 2*frameDictMax {
				t.Fatalf("table grew to %d slots for at most %d ids", len(d.slots), frameDictMax)
			}
		})
	}
}

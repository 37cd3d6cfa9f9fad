package transport

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// zipfSlab builds a slab of n messages whose keys follow the Zipf
// distribution the experiments use (s=1.2 over 5000 keys), with the
// field shapes of real bolt traffic: small positive weights, a shared
// window, elided values, 1-in-8 emit sampling, constant src.
func zipfSlab(seed uint64, n int) []Msg {
	rng := rand.New(rand.NewSource(int64(seed)))
	z := rand.NewZipf(rng, 1.2, 1, 4999)
	msgs := make([]Msg, n)
	for i := range msgs {
		key := fmt.Sprintf("key-%05d", z.Uint64())
		msgs[i] = Msg{
			Dig:    digestOf(key),
			Window: int64(seed) % 16,
			Weight: 1,
			Src:    int32(seed % 4),
			Key:    key,
		}
		if i&latBenchMask == 0 {
			msgs[i].Emit = int64(seed)*1e6 + int64(i)
		}
	}
	return msgs
}

const latBenchMask = 7 // mirrors the dataplane's 1-in-8 latency sampling

// BenchmarkFrameCodec times the columnar + persistent-dictionary codec
// on Zipf key slabs, for encode, decode, and the full round trip, with
// bytes/msg beside the encode time (the repository's wire-size figure
// is the ledger's transport.frame_bytes_per_msg); steady-state decode
// is also pinned at 0 allocs/op by
// TestColumnarDecodeSteadyStateZeroAllocs.
func BenchmarkFrameCodec(b *testing.B) {
	const slabLen = 256
	slabs := make([][]Msg, 16)
	for i := range slabs {
		slabs[i] = zipfSlab(uint64(i)+1, slabLen)
	}

	b.Run("columnar/encode", func(b *testing.B) {
		var enc Encoder
		var buf []byte
		bytes := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = enc.AppendFrame(buf[:0], slabs[i%len(slabs)])
			bytes += len(buf)
		}
		b.ReportMetric(float64(bytes)/float64(b.N*slabLen), "bytes/msg")
	})

	b.Run("columnar/decode", func(b *testing.B) {
		var enc Encoder
		payloads := encodeAll(b, slabs, func(dst []byte, s []Msg) []byte { return enc.AppendFrame(dst, s) })
		var dec Decoder
		// Warm the decoder's dictionary through one full rotation so the
		// measured loop is the steady state (all refs, no new keys).
		warm := make([][]Msg, len(slabs))
		for i, p := range payloads {
			var err error
			if warm[i], err = dec.DecodeFrame(p, nil); err != nil {
				b.Fatal(err)
			}
		}
		// Re-encode so every payload is pure-reference against the now
		// fully populated dictionary.
		payloads = encodeAll(b, slabs, func(dst []byte, s []Msg) []byte { return enc.AppendFrame(dst, s) })
		for _, p := range payloads {
			if _, err := dec.DecodeFrame(p, nil); err != nil {
				b.Fatal(err)
			}
		}
		dst := make([]Msg, 0, 2*slabLen)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = dec.DecodeFrame(payloads[i%len(payloads)], dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("columnar/roundtrip", func(b *testing.B) {
		var enc Encoder
		var dec Decoder
		var buf []byte
		dst := make([]Msg, 0, 2*slabLen)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = enc.AppendFrame(buf[:0], slabs[i%len(slabs)])
			_, n := binary.Uvarint(buf)
			var err error
			dst, err = dec.DecodeFrame(buf[n:], dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// encodeAll encodes every slab and strips the length prefixes.
func encodeAll(b *testing.B, slabs [][]Msg, enc func([]byte, []Msg) []byte) [][]byte {
	b.Helper()
	payloads := make([][]byte, len(slabs))
	for i, s := range slabs {
		frame := enc(nil, s)
		_, n := binary.Uvarint(frame)
		if n <= 0 {
			b.Fatal("bad frame")
		}
		payloads[i] = frame[n:]
	}
	return payloads
}

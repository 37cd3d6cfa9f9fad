package tracefile

import (
	"bytes"
	"encoding/binary"
	"io"
	"path/filepath"
	"testing"
	"testing/quick"

	"slb/internal/stream"
	"slb/internal/workload"
)

// drain pulls every key from a generator.
func drain(g stream.Generator) []string {
	var out []string
	slab := make([]string, 97)
	for n := g.NextBatch(slab); n > 0; n = g.NextBatch(slab) {
		out = append(out, slab[:n]...)
	}
	return out
}

func TestRoundTripBytes(t *testing.T) {
	orig := workload.NewZipf(1.5, 500, 20000, 9)
	var buf bytes.Buffer
	n, err := Write(&buf, orig)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20000 {
		t.Fatalf("wrote %d messages", n)
	}
	g, err := NewReplay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 20000 {
		t.Fatalf("Len = %d", g.Len())
	}
	got := drain(g)
	want := drain(orig)
	if len(got) != len(want) {
		t.Fatalf("decoded %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %q vs %q", i, got[i], want[i])
		}
	}
	// Reset replays identically.
	g.Reset()
	again := drain(g)
	for i := range again {
		if again[i] != want[i] {
			t.Fatalf("reset replay mismatch at %d", i)
		}
	}
}

func TestRoundTripFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.slbt")
	orig := workload.NewZipf(1.2, 100, 5000, 3)
	if _, err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got := drain(g)
	want := drain(orig)
	if len(got) != 5000 {
		t.Fatalf("decoded %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
	g.Reset()
	if got := drain(g); len(got) != len(want) || got[0] != want[0] {
		t.Fatal("file Reset did not rewind")
	}
}

func TestStatsPreserved(t *testing.T) {
	orig := workload.NewZipf(2.0, 1000, 30000, 5)
	var buf bytes.Buffer
	if _, err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	g, err := NewReplay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := stream.Collect(orig)
	b := stream.Collect(g)
	if a != b {
		t.Fatalf("stats changed through trace: %+v vs %+v", a, b)
	}
}

func TestCompression(t *testing.T) {
	// A skewed 100k-message stream should cost well under 4 bytes/msg.
	orig := workload.NewZipf(1.4, 10000, 100000, 1)
	var buf bytes.Buffer
	if _, err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if perMsg := float64(buf.Len()) / 100000; perMsg > 4 {
		t.Fatalf("trace costs %.2f bytes/message", perMsg)
	}
}

func TestCorruptHeader(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short":       []byte("SL"),
		"bad magic":   append([]byte("XXXX"), make([]byte, 12)...),
		"bad version": append([]byte("SLBT"), make([]byte, 12)...),
		// Version 1 with the count's top bit set: 1<<63 | 50.
		"negative count": append([]byte("SLBT"), 1, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0, 0x80),
	}
	// "bad version" has version 0; valid magic.
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: header accepted", name)
		}
	}
}

func TestTruncatedBody(t *testing.T) {
	orig := stream.FromSlice([]string{"alpha", "beta", "alpha"})
	var buf bytes.Buffer
	if _, err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var decodeErr error
	for {
		if _, _, decodeErr = r.NextValue(); decodeErr != nil {
			break
		}
	}
	if decodeErr == io.EOF {
		t.Fatal("truncated trace decoded cleanly to EOF")
	}
}

func TestSkippedDictionaryID(t *testing.T) {
	// Handcraft a trace whose first message references id 1 (invalid:
	// dictionary is empty, so only id 0 = new key is legal).
	var buf bytes.Buffer
	buf.WriteString(Magic)
	hdr := make([]byte, 12)
	hdr[0] = Version
	hdr[4] = 1 // one message
	buf.Write(hdr)
	buf.WriteByte(1) // varint id 1
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.NextValue(); err == nil {
		t.Fatal("dictionary-skipping id accepted")
	}
}

// TestDeclaredAndKeys checks that the header's declared count is what a
// replay reports as its Len before anything is read, and that the
// dictionary coding gives back each distinct key with its repeats.
func TestDeclaredAndKeys(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, stream.FromSlice([]string{"a", "b", "a"})); err != nil {
		t.Fatal(err)
	}
	g, err := NewReplay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want the declared 3", g.Len())
	}
	got := drain(g)
	distinct := map[string]int{}
	for _, k := range got {
		distinct[k]++
	}
	if len(got) != 3 || len(distinct) != 2 || distinct["a"] != 2 {
		t.Fatalf("replayed %q, want two distinct keys with a twice", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		keys := make([]string, len(raw))
		for i, b := range raw {
			// Include empty and multi-byte keys.
			keys[i] = string(bytes.Repeat([]byte{'x'}, int(b%5)))
		}
		var buf bytes.Buffer
		if _, err := Write(&buf, stream.FromSlice(keys)); err != nil {
			return false
		}
		g, err := NewReplay(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		got := drain(g)
		if g.Len() != int64(len(keys)) || len(got) != len(keys) {
			return false
		}
		for i := range got {
			if got[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// traceVals derives a deterministic, sign-varying payload from key and
// sequence — the kind of sample a stream.WithValues wrapper derives and
// a version-2 trace records.
func traceVals(key string, seq int64) int64 {
	v := int64(len(key))*37 + seq%101
	if seq%3 == 0 {
		v = -v
	}
	return v
}

func TestRoundTripValues(t *testing.T) {
	orig := stream.WithValues(workload.NewZipf(1.5, 200, 8000, 11), traceVals)
	var buf bytes.Buffer
	n, err := Write(&buf, orig)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8000 {
		t.Fatalf("wrote %d messages", n)
	}
	g, err := NewReplay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasValues() {
		t.Fatal("value-bearing trace reports HasValues() == false")
	}
	keys := make([]string, 97)
	vals := make([]int64, 97)
	var seq int64
	for {
		n := g.NextBatchValues(keys, vals)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if want := traceVals(keys[i], seq); vals[i] != want {
				t.Fatalf("message %d value = %d, want %d", seq, vals[i], want)
			}
			seq++
		}
	}
	if seq != 8000 {
		t.Fatalf("decoded %d messages", seq)
	}
	// The key sequence must be unchanged by the value column.
	g.Reset()
	orig.Reset()
	got, want := drain(g), drain(orig)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key mismatch at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

func TestRoundTripValuesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vals.slbt")
	orig := stream.WithValues(workload.NewZipf(1.2, 50, 3000, 4), traceVals)
	if _, err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if !g.HasValues() {
		t.Fatal("file trace reports HasValues() == false")
	}
	sum := func() int64 {
		keys := make([]string, 64)
		vals := make([]int64, 64)
		var s int64
		for {
			n := g.NextBatchValues(keys, vals)
			if n == 0 {
				return s
			}
			for _, v := range vals[:n] {
				s += v
			}
		}
	}
	first := sum()
	g.Reset()
	if again := sum(); again != first {
		t.Fatalf("value sum changed across Reset: %d vs %d", again, first)
	}
}

func TestVersion1StillReadable(t *testing.T) {
	// A key-only generator must keep producing version-1 traces (the
	// bytes existing tooling and committed traces expect), and their
	// replay supplies the constant 1 through the value-aware paths.
	var buf bytes.Buffer
	if _, err := Write(&buf, workload.NewZipf(1.3, 40, 1000, 2)); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:8]); v != 1 {
		t.Fatalf("key-only trace written as version %d", v)
	}
	g, err := NewReplay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.HasValues() {
		t.Fatal("version-1 trace reports HasValues() == true")
	}
	if stream.Values(g) != nil {
		t.Fatal("stream.Values must reject a version-1 replay")
	}
	keys := make([]string, 1000)
	vals := make([]int64, 1000)
	if n := g.NextBatchValues(keys, vals); n != 1000 {
		t.Fatalf("decoded %d messages", n)
	}
	for i, v := range vals {
		if v != 1 {
			t.Fatalf("message %d value = %d, want the constant 1", i, v)
		}
	}
}

func TestTruncatedValueColumn(t *testing.T) {
	orig := stream.WithValues(stream.FromSlice([]string{"alpha", "beta"}), traceVals)
	var buf bytes.Buffer
	if _, err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	// Drop the final byte (the last message's value varint).
	r, err := NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()-1]))
	if err != nil {
		t.Fatal(err)
	}
	var decodeErr error
	for {
		if _, _, decodeErr = r.NextValue(); decodeErr != nil {
			break
		}
	}
	if decodeErr == io.EOF {
		t.Fatal("truncated value column decoded cleanly to EOF")
	}
}

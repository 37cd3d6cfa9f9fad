package stream

import (
	"testing"
	"testing/quick"
)

func TestCollect(t *testing.T) {
	g := FromSlice([]string{"a", "b", "a", "a", "c"})
	s := Collect(g)
	if s.Messages != 5 || s.Keys != 3 || s.TopKey != "a" || s.P1 != 0.6 {
		t.Fatalf("Collect = %+v", s)
	}
	// Collect must leave the generator rewound.
	if k, ok := g.Next(); !ok || k != "a" {
		t.Fatalf("generator not reset after Collect: %q %v", k, ok)
	}
}

func TestCollectEmpty(t *testing.T) {
	s := Collect(FromSlice(nil))
	if s.Messages != 0 || s.Keys != 0 || s.P1 != 0 {
		t.Fatalf("Collect(empty) = %+v", s)
	}
}

func TestCollectTieBreaksByKey(t *testing.T) {
	s := Collect(FromSlice([]string{"b", "a"}))
	if s.TopKey != "a" {
		t.Fatalf("TopKey = %q, want deterministic tie-break to %q", s.TopKey, "a")
	}
}

func TestSliceGenerator(t *testing.T) {
	g := FromSlice([]string{"x", "y"})
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	var got []string
	for {
		k, ok := g.Next()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("drained %v", got)
	}
	if _, ok := g.Next(); ok {
		t.Fatal("Next after exhaustion returned ok")
	}
	g.Reset()
	if k, ok := g.Next(); !ok || k != "x" {
		t.Fatal("Reset did not rewind")
	}
}

func TestCollectCountsProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		keys := make([]string, len(raw))
		for i, b := range raw {
			keys[i] = string(rune('a' + b%5))
		}
		s := Collect(FromSlice(keys))
		return s.Messages == int64(len(keys)) && s.P1 >= 0 && s.P1 <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// onlyNext hides the batch method of an inner generator, forcing the
// NextBatch helper onto its per-message fallback.
type onlyNext struct{ g Generator }

func (o onlyNext) Next() (string, bool) { return o.g.Next() }
func (o onlyNext) Len() int64           { return o.g.Len() }
func (o onlyNext) Reset()               { o.g.Reset() }

func TestNextBatchMatchesNext(t *testing.T) {
	keys := []string{"a", "b", "a", "c", "d", "a", "e"}
	mk := []struct {
		name string
		gen  func() Generator
	}{
		{"slice", func() Generator { return FromSlice(keys) }},
		{"fallback", func() Generator { return onlyNext{FromSlice(keys)} }},
	}
	for _, tc := range mk {
		for _, bs := range []int{1, 2, 3, 100} {
			seq := tc.gen()
			bat := tc.gen()
			var want []string
			for {
				k, ok := seq.Next()
				if !ok {
					break
				}
				want = append(want, k)
			}
			var got []string
			buf := make([]string, bs)
			for {
				n := NextBatch(bat, buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if len(got) != len(want) {
				t.Fatalf("%s bs=%d: batch emitted %d keys, want %d", tc.name, bs, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s bs=%d: key %d = %q, want %q", tc.name, bs, i, got[i], want[i])
				}
			}
		}
	}
}

func TestWithValuesDerivesPerMessage(t *testing.T) {
	fn := func(key string, seq int64) int64 { return int64(len(key))*100 + seq }
	g := WithValues(FromSlice([]string{"a", "bb", "a", "ccc"}), fn)
	if !g.HasValues() || Values(g) == nil {
		t.Fatal("WithValues must report recorded values")
	}
	keys := make([]string, 3)
	vals := make([]int64, 3)
	var gotK []string
	var gotV []int64
	for {
		n := g.NextBatchValues(keys, vals)
		if n == 0 {
			break
		}
		gotK = append(gotK, keys[:n]...)
		gotV = append(gotV, vals[:n]...)
	}
	wantK := []string{"a", "bb", "a", "ccc"}
	wantV := []int64{100, 201, 102, 303}
	for i := range wantK {
		if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
			t.Fatalf("message %d = (%q, %d), want (%q, %d)", i, gotK[i], gotV[i], wantK[i], wantV[i])
		}
	}
	// Reset rewinds the derived sequence too.
	g.Reset()
	if n := g.NextBatchValues(keys, vals); n == 0 || vals[0] != 100 {
		t.Fatalf("after Reset first value = %d, want 100", vals[0])
	}
	// Mixed consumption: keys pulled through Next advance seq so later
	// batch pulls stay aligned.
	g.Reset()
	if k, ok := g.Next(); !ok || k != "a" {
		t.Fatalf("Next = %q", k)
	}
	if n := g.NextBatchValues(keys, vals); n == 0 || vals[0] != 201 {
		t.Fatalf("value after one Next = %d, want 201", vals[0])
	}
}

func TestNextBatchValuesFallback(t *testing.T) {
	// A plain Generator has no recorded values: the helper fills the
	// constant 1 and Values() reports nil (so engines keep key+seq or
	// count semantics).
	g := FromSlice([]string{"x", "y", "z"})
	if Values(g) != nil {
		t.Fatal("plain generator must not report values")
	}
	keys := make([]string, 8)
	vals := make([]int64, 8)
	if n := NextBatchValues(g, keys, vals); n != 3 {
		t.Fatalf("filled %d", n)
	}
	for i := 0; i < 3; i++ {
		if vals[i] != 1 {
			t.Fatalf("value %d = %d, want 1", i, vals[i])
		}
	}
}

func TestValuePullerMatchesBatch(t *testing.T) {
	fn := func(key string, seq int64) int64 { return seq * seq }
	mk := func() ValueBatchGenerator {
		keys := make([]string, 100)
		for i := range keys {
			keys[i] = string(rune('a' + i%7))
		}
		return WithValues(FromSlice(keys), fn)
	}
	p := NewValuePuller(mk(), 16)
	ref := mk()
	keys := make([]string, 100)
	vals := make([]int64, 100)
	n := ref.NextBatchValues(keys, vals)
	for i := 0; i < n; i++ {
		k, v, ok := p.Next()
		if !ok {
			t.Fatalf("puller ended early at %d", i)
		}
		if k != keys[i] || v != vals[i] {
			t.Fatalf("message %d = (%q, %d), want (%q, %d)", i, k, v, keys[i], vals[i])
		}
	}
	if _, _, ok := p.Next(); ok {
		t.Fatal("puller overran the stream")
	}
}

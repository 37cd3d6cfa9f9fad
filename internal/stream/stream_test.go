package stream

import (
	"strings"
	"sync"
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
	one := make([]string, 1)
	if n := g.NextBatch(one); n != 1 || one[0] != "a" {
		t.Fatalf("generator not reset after Collect: %q %d", one[0], n)
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
	got := make([]string, 3)
	if n := g.NextBatch(got); n != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("drained %d: %v", n, got)
	}
	if n := g.NextBatch(got); n != 0 {
		t.Fatalf("NextBatch after exhaustion filled %d", n)
	}
	g.Reset()
	if n := g.NextBatch(got[:1]); n != 1 || got[0] != "x" {
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
	// Mixed consumption: keys pulled through NextBatch advance seq so
	// later value pulls stay aligned.
	g.Reset()
	if n := g.NextBatch(keys[:1]); n != 1 || keys[0] != "a" {
		t.Fatalf("NextBatch = %q", keys[0])
	}
	if n := g.NextBatchValues(keys, vals); n == 0 || vals[0] != 201 {
		t.Fatalf("value after one key = %d, want 201", vals[0])
	}
}

// TestNextBatchMatchesNext pins the Generator contract for the stream
// package's own generators: draining with slabs of 1, 3, 129 and 512
// gives the same keys and, where recorded, values; each drain after
// the first starts from Reset, so Reset rewinds to the same sequence.
func TestNextBatchMatchesNext(t *testing.T) {
	keys := []string{"a", "bb", "a", "ccc", "a", "dddd", "bb", "a"}
	long := make([]string, 1001)
	for i := range long {
		long[i] = keys[(i*i+3*i)%len(keys)]
	}
	fn := func(key string, seq int64) int64 { return int64(len(key))*100 - seq }
	gens := map[string]Generator{
		"from-slice":  FromSlice(keys),
		"from-long":   FromSlice(long),
		"with-values": WithValues(FromSlice(long), fn),
	}
	drainSlabs := func(g Generator, slab int) ([]string, []int64) {
		vg, _ := g.(ValueBatchGenerator)
		ks, vs := make([]string, slab), make([]int64, slab)
		var gotK []string
		var gotV []int64
		for {
			var n int
			if vg != nil {
				n = vg.NextBatchValues(ks, vs)
				gotV = append(gotV, vs[:n]...)
			} else {
				n = g.NextBatch(ks)
			}
			if n == 0 {
				return gotK, gotV
			}
			gotK = append(gotK, ks[:n]...)
		}
	}
	for name, g := range gens {
		wantK, wantV := drainSlabs(g, 1)
		if int64(len(wantK)) != g.Len() {
			t.Fatalf("%s: drained %d messages, Len %d", name, len(wantK), g.Len())
		}
		for _, slab := range []int{3, 129, 512} {
			g.Reset()
			gotK, gotV := drainSlabs(g, slab)
			if !equalSeq(gotK, wantK) || !equalSeq(gotV, wantV) {
				t.Fatalf("%s: slabs of %d drain a different sequence than slabs of 1", name, slab)
			}
		}
	}
}

func equalSeq[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// drainSource draws src to the end in slabs of slab, with values.
func drainSource(src *Source, slab int) ([]string, []int64) {
	keys, vals := make([]string, slab), make([]int64, slab)
	var gotK []string
	var gotV []int64
	for {
		n, _ := src.Draw(keys, vals)
		if n == 0 {
			return gotK, gotV
		}
		gotK = append(gotK, keys[:n]...)
		gotV = append(gotV, vals[:n]...)
	}
}

// TestSourceSamplingPrecedence pins the sampling contract: recorded
// values win over the constant 1, and a WithValues wrapper over a
// recorded stream overrides its values.
func TestSourceSamplingPrecedence(t *testing.T) {
	keys := []string{"a", "bb", "a", "ccc", "dddd"}
	recorded := func(key string, seq int64) int64 { return 1000 + seq }
	derive := func(key string, seq int64) int64 { return int64(len(key))*10 + seq }
	for _, tc := range []struct {
		name string
		gen  Generator
		want []int64
	}{
		{"wrapper over recorded", WithValues(WithValues(FromSlice(keys), recorded), derive), []int64{10, 21, 12, 33, 44}},
		{"wrapper over plain", WithValues(FromSlice(keys), derive), []int64{10, 21, 12, 33, 44}},
		{"recorded", WithValues(FromSlice(keys), recorded), []int64{1000, 1001, 1002, 1003, 1004}},
		{"constant 1", FromSlice(keys), []int64{1, 1, 1, 1, 1}},
	} {
		for _, slab := range []int{1, 2, 8} {
			gotK, gotV := drainSource(NewSource(tc.gen, 0), slab)
			if len(gotK) != len(keys) {
				t.Fatalf("%s slab=%d: drew %d messages, want %d", tc.name, slab, len(gotK), len(keys))
			}
			for i := range keys {
				if gotK[i] != keys[i] || gotV[i] != tc.want[i] {
					t.Fatalf("%s slab=%d: message %d = (%q, %d), want (%q, %d)",
						tc.name, slab, i, gotK[i], gotV[i], keys[i], tc.want[i])
				}
			}
		}
	}
	// A keys-only draw never derives a value.
	src := NewSource(WithValues(FromSlice(keys), func(string, int64) int64 { panic("value derived on a keys-only draw") }), 0)
	if n, _ := src.Draw(make([]string, 8), nil); n != len(keys) {
		t.Fatalf("keys-only draw = %d", n)
	}
}

// TestSourceLimitAndShortStream: the plan is min(Len, limit), the draw
// stops there, and a stream that ends before its plan is an error.
func TestSourceLimitAndShortStream(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f", "g"}
	for _, tc := range []struct {
		limit, planned int64
	}{{0, 7}, {-1, 7}, {3, 3}, {7, 7}, {100, 7}} {
		src := NewSource(FromSlice(keys), tc.limit)
		if src.Planned() != tc.planned {
			t.Fatalf("limit %d: Planned = %d, want %d", tc.limit, src.Planned(), tc.planned)
		}
		if err := src.Err(); tc.planned > 0 && err == nil {
			t.Fatalf("limit %d: Err before any draw is nil", tc.limit)
		}
		gotK, _ := drainSource(src, 2)
		if int64(len(gotK)) != tc.planned || src.Err() != nil {
			t.Fatalf("limit %d: drew %d, Err %v; want %d, nil", tc.limit, len(gotK), src.Err(), tc.planned)
		}
		if n, base := src.Draw(make([]string, 4), nil); n != 0 || base != tc.planned {
			t.Fatalf("limit %d: draw past the plan = (%d, %d)", tc.limit, n, base)
		}
	}
	// NewSource resets: a half-drained generator plans its whole Len.
	g := FromSlice(keys)
	g.NextBatch(make([]string, 4))
	if gotK, _ := drainSource(NewSource(g, 0), 3); len(gotK) != len(keys) || gotK[0] != "a" {
		t.Fatalf("NewSource did not rewind: %v", gotK)
	}
	// Len promises more than the stream holds: the run is short.
	src := NewSource(short{FromSlice(keys)}, 0)
	drainSource(src, 4)
	if err := src.Err(); err == nil || !strings.Contains(err.Error(), "7 of the 9") {
		t.Fatalf("short stream: Err = %v, want 7 of the 9 planned", err)
	}
}

// short declares two messages more than its generator emits.
type short struct{ *SliceGenerator }

func (s short) Len() int64 { return s.SliceGenerator.Len() + 2 }

// TestSourceConcurrentDrawsTile: S goroutines drawing one source
// concurrently get slabs whose (base, n) ranges tile [0, planned) with
// no gap or overlap, and each position's key and value equal a
// sequential drain's — for recorded and derived values alike.
func TestSourceConcurrentDrawsTile(t *testing.T) {
	const S, m, limit = 8, 5000, 4321
	keys := make([]string, m)
	for i := range keys {
		keys[i] = string(rune('a' + i%23))
	}
	recorded := func(key string, seq int64) int64 { return seq * seq }
	derive := func(key string, seq int64) int64 { return int64(key[0]) - seq }
	for _, tc := range []struct {
		name string
		mk   func() Generator
	}{
		{"recorded", func() Generator { return WithValues(FromSlice(keys), recorded) }},
		{"derived", func() Generator { return WithValues(FromSlice(keys), derive) }},
	} {
		wantK, wantV := drainSource(NewSource(tc.mk(), limit), 512)
		src := NewSource(tc.mk(), limit)
		gotK, gotV := make([]string, limit), make([]int64, limit)
		covered := make([]int32, limit)
		var wg sync.WaitGroup
		for s := 0; s < S; s++ {
			wg.Add(1)
			go func(slab int) {
				defer wg.Done()
				keys, vals := make([]string, slab), make([]int64, slab)
				for {
					n, base := src.Draw(keys, vals)
					if n == 0 {
						return
					}
					copy(gotK[base:], keys[:n])
					copy(gotV[base:], vals[:n])
					for i := base; i < base+int64(n); i++ {
						covered[i]++ // ranges are disjoint, so no two goroutines share i
					}
				}
			}(1 + 13*s)
		}
		wg.Wait()
		if err := src.Err(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range covered {
			if covered[i] != 1 {
				t.Fatalf("%s: position %d drawn %d times", tc.name, i, covered[i])
			}
			if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
				t.Fatalf("%s: position %d = (%q, %d), sequential drain (%q, %d)",
					tc.name, i, gotK[i], gotV[i], wantK[i], wantV[i])
			}
		}
	}
}

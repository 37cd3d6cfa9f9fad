package spacesaving

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"slb/internal/hashing"
	"slb/internal/workload"
)

// offer feeds one occurrence of k, digested here as a source would.
func offer(s *Summary, k string) { s.OfferDigest(hashing.Digest(k), k) }

// count is CountDigest for a key.
func count(s *Summary, k string) (count, err uint64, ok bool) {
	return s.CountDigest(hashing.Digest(k))
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New(c)
		}()
	}
}

func TestExactWhenUnderCapacity(t *testing.T) {
	s := New(10)
	stream := []string{"a", "b", "a", "c", "a", "b"}
	for _, k := range stream {
		offer(s, k)
	}
	want := map[string]uint64{"a": 3, "b": 2, "c": 1}
	for k, w := range want {
		got, err, ok := count(s, k)
		if !ok || got != w || err != 0 {
			t.Errorf("Count(%q) = (%d,%d,%v), want (%d,0,true)", k, got, err, ok, w)
		}
	}
	if s.N() != uint64(len(stream)) {
		t.Errorf("N() = %d, want %d", s.N(), len(stream))
	}
	if s.Len() != 3 {
		t.Errorf("Len() = %d, want 3", s.Len())
	}
}

func TestEvictionSemantics(t *testing.T) {
	s := New(2)
	offer(s, "a")
	offer(s, "a")
	offer(s, "b")
	// Sketch full: {a:2, b:1}. Offering c evicts b (min=1): c gets count 2, err 1.
	offer(s, "c")
	if _, _, ok := count(s, "b"); ok {
		t.Fatal("b should have been evicted")
	}
	count, errv, ok := count(s, "c")
	if !ok || count != 2 || errv != 1 {
		t.Fatalf("Count(c) = (%d,%d,%v), want (2,1,true)", count, errv, ok)
	}
}

// trueCounts computes exact frequencies for a slice stream.
func trueCounts(stream []string) map[string]uint64 {
	m := make(map[string]uint64)
	for _, k := range stream {
		m[k]++
	}
	return m
}

func zipfStream(tb testing.TB, n int, seed int64, s float64, vocab int) []string {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, s, 1, uint64(vocab-1))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("k%d", z.Uint64())
	}
	return out
}

func TestGuaranteesOnSkewedStream(t *testing.T) {
	stream := zipfStream(t, 50000, 1, 1.3, 10000)
	truth := trueCounts(stream)
	s := New(100)
	for _, k := range stream {
		offer(s, k)
	}
	// Invariant 1: est − err ≤ true ≤ est for every monitored key.
	for _, e := range s.Entries() {
		tr := truth[e.Key]
		if e.Count < tr {
			t.Fatalf("underestimate for %q: est %d < true %d", e.Key, e.Count, tr)
		}
		if e.Count-e.Err > tr {
			t.Fatalf("lower bound violated for %q: est−err %d > true %d", e.Key, e.Count-e.Err, tr)
		}
	}
	// Invariant 2: unmonitored keys have true count ≤ MinCount ≤ N/c.
	minC := s.MinCount()
	if minC > s.N()/uint64(s.Capacity()) {
		t.Fatalf("MinCount %d exceeds N/c = %d", minC, s.N()/uint64(s.Capacity()))
	}
	for k, tr := range truth {
		if _, _, ok := count(s, k); !ok && tr > minC {
			t.Fatalf("unmonitored key %q has true count %d > MinCount %d", k, tr, minC)
		}
	}
}

func TestHeavyHittersNoFalseNegatives(t *testing.T) {
	stream := zipfStream(t, 30000, 2, 1.5, 5000)
	truth := trueCounts(stream)
	theta := 0.01
	s := New(int(2 / theta)) // capacity 200 ≥ 1/θ
	for _, k := range stream {
		offer(s, k)
	}
	hh := s.HeavyHitters(theta)
	got := make(map[string]bool, len(hh))
	for _, e := range hh {
		got[e.Key] = true
	}
	n := float64(len(stream))
	for k, tr := range truth {
		if float64(tr)/n >= theta && !got[k] {
			t.Errorf("true heavy hitter %q (freq %.4f) missing", k, float64(tr)/n)
		}
	}
}

func TestEntriesSortedDescending(t *testing.T) {
	stream := zipfStream(t, 10000, 3, 1.2, 1000)
	s := New(50)
	for _, k := range stream {
		offer(s, k)
	}
	e := s.Entries()
	for i := 1; i < len(e); i++ {
		if e[i].Count > e[i-1].Count {
			t.Fatalf("Entries not sorted at %d: %d > %d", i, e[i].Count, e[i-1].Count)
		}
	}
	if len(e) != s.Len() {
		t.Fatalf("Entries length %d != Len %d", len(e), s.Len())
	}
}

func TestTop(t *testing.T) {
	s := New(10)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			offer(s, fmt.Sprintf("t%d", i))
		}
	}
	top := s.HeavyHitters(0)
	if len(top) != 5 || top[0].Key != "t4" || top[1].Key != "t3" {
		t.Fatalf("HeavyHitters(0) = %v, want all 5 keys, t4 then t3 first", top)
	}
}

func TestMergePreservesGuarantees(t *testing.T) {
	streamA := zipfStream(t, 20000, 4, 1.4, 3000)
	streamB := zipfStream(t, 20000, 5, 1.4, 3000)
	truth := trueCounts(append(append([]string{}, streamA...), streamB...))

	a, b := New(80), New(80)
	for _, k := range streamA {
		offer(a, k)
	}
	for _, k := range streamB {
		offer(b, k)
	}
	m := a.Merge(b)

	if m.N() != a.N()+b.N() {
		t.Fatalf("merged N = %d, want %d", m.N(), a.N()+b.N())
	}
	if m.Len() > m.Capacity() {
		t.Fatalf("merged Len %d exceeds capacity %d", m.Len(), m.Capacity())
	}
	for _, e := range m.Entries() {
		tr := truth[e.Key]
		if e.Count < tr {
			t.Fatalf("merge underestimates %q: est %d < true %d", e.Key, e.Count, tr)
		}
		if e.Count-e.Err > tr {
			t.Fatalf("merge lower bound violated for %q: %d−%d > %d", e.Key, e.Count, e.Err, tr)
		}
	}
	// Inputs untouched.
	if a.Len() == 0 || b.Len() == 0 {
		t.Fatal("Merge modified its inputs")
	}
}

func TestMergedSummaryStillUpdatable(t *testing.T) {
	a, b := New(4), New(4)
	offer(a, "x")
	offer(a, "x")
	offer(b, "y")
	m := a.Merge(b)
	offer(m, "x")
	offer(m, "z")
	c, _, ok := count(m, "x")
	if !ok || c < 3 {
		t.Fatalf("Count(x) after merge+offer = (%d, %v), want ≥3", c, ok)
	}
}

// Property: for random streams, SpaceSaving never underestimates and the
// lower bound est−err never exceeds the true count.
func TestBoundsProperty(t *testing.T) {
	prop := func(raw []uint8, capRaw uint8) bool {
		capacity := int(capRaw%20) + 1
		s := New(capacity)
		truth := make(map[string]uint64)
		for _, b := range raw {
			k := fmt.Sprintf("p%d", b%32)
			truth[k]++
			offer(s, k)
		}
		for _, e := range s.Entries() {
			tr := truth[e.Key]
			if e.Count < tr || e.Count-e.Err > tr {
				return false
			}
		}
		// Total estimated mass of the sketch never exceeds... it can exceed N
		// individually, but sum of (count − err) must be ≤ N.
		var lower uint64
		for _, e := range s.Entries() {
			lower += e.Count - e.Err
		}
		return lower <= s.N()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: bucket list stays strictly ascending and consistent with the
// counters map after arbitrary operations.
func TestStructureInvariant(t *testing.T) {
	prop := func(raw []uint16) bool {
		s := New(8)
		for _, v := range raw {
			offer(s, fmt.Sprintf("s%d", v%64))
		}
		seen := 0
		var prevCount uint64
		var last *bucket
		for b := s.min; b != nil; b = b.next {
			last = b
		}
		if s.max != last {
			return false // max pointer out of sync
		}
		for b := s.min; b != nil; b = b.next {
			if b.count <= prevCount {
				return false
			}
			prevCount = b.count
			if b.head == nil {
				return false // empty bucket left linked
			}
			size := 0
			for c := b.head; c != nil; c = c.next {
				if c.bucket != b || c.count != b.count {
					return false
				}
				if s.table.get(c.dig) != c {
					return false
				}
				size++
			}
			if b.size != size {
				return false // HeadCounts would miscount this bucket
			}
			seen += size
		}
		return seen == s.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOfferDigestNMatchesRepeatedOffers(t *testing.T) {
	// OfferDigestN(d, key, r) must be indistinguishable from r calls to
	// Offer(key), across monitored, fresh-insert and eviction cases.
	prop := func(raw []uint16) bool {
		a, b := New(4), New(4)
		for _, v := range raw {
			k := fmt.Sprintf("r%d", v%16)
			r := uint64(v%5) + 1
			d := hashing.Digest(k)
			for j := uint64(0); j < r; j++ {
				a.OfferDigest(d, k)
			}
			b.OfferDigestN(d, k, r)
			if a.N() != b.N() || a.MinCount() != b.MinCount() {
				return false
			}
		}
		ea, eb := a.Entries(), b.Entries()
		if len(ea) != len(eb) {
			return false
		}
		for i := range ea {
			if ea[i] != eb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOfferSteadyStateDoesNotAllocate(t *testing.T) {
	// After warmup (sketch at capacity, bucket free-list primed), the
	// offer path must not allocate even under constant eviction churn.
	s := New(64)
	keys := make([]string, 4096)
	digs := make([]hashing.KeyDigest, 4096)
	rng := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc%d", rng.Intn(1024))
		digs[i] = hashing.Digest(keys[i])
	}
	for i := range keys {
		s.OfferDigest(digs[i], keys[i]) // warmup: fill capacity, prime pools
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		s.OfferDigest(digs[i&4095], keys[i&4095])
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state OfferDigest allocates %.3f allocs/op, want 0", avg)
	}
}

func BenchmarkOfferDigest(b *testing.B) {
	stream := zipfStream(b, 1<<16, 9, 1.2, 10000)
	digs := make([]hashing.KeyDigest, len(stream))
	for i, k := range stream {
		digs[i] = hashing.Digest(k)
	}
	s := New(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OfferDigest(digs[i&(1<<16-1)], stream[i&(1<<16-1)])
	}
}

// BenchmarkOfferZipf offers a z = 0.8 digest stream over 10⁵ keys to
// the sketch at the capacities core derives by default (4·⌈1/θ⌉ with
// θ = 1/(5n)) for n = 8, 64 and 4096 workers. At z = 0.8 most offers at
// the two small capacities are misses that evict, so the benchmark
// times the miss path; it reports ns/offer and evictions/offer, the
// sketch warmed by one pass over the stream first.
func BenchmarkOfferZipf(b *testing.B) {
	const n = 1 << 20
	keys := make([]string, n)
	workload.NewZipf(0.8, 100_000, n, 42).NextBatch(keys)
	digs := make([]hashing.KeyDigest, n)
	for i, k := range keys {
		digs[i] = hashing.Digest(k)
	}
	for _, capacity := range []int{164, 1284, 81924} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			s := New(capacity)
			for i := range keys {
				s.OfferDigest(digs[i], keys[i])
			}
			ev0 := s.Evictions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.OfferDigest(digs[i&(n-1)], keys[i&(n-1)])
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/offer")
			b.ReportMetric(float64(s.Evictions()-ev0)/float64(b.N), "evictions/offer")
		})
	}
}

// checkHeadCounts requires HeadCounts(θ) to equal the counts of
// HeavyHitters(θ) element for element, for a sweep of θ.
func checkHeadCounts(t *testing.T, where string, s *Summary, scratch []uint64) []uint64 {
	t.Helper()
	for _, theta := range []float64{0, 1e-5, 1e-4, 1e-3, 0.01, 0.2, 1.1} {
		hh := s.HeavyHitters(theta)
		scratch = s.HeadCounts(theta, scratch)
		if len(scratch) != len(hh) {
			t.Fatalf("%s θ=%g: HeadCounts has %d entries, HeavyHitters %d", where, theta, len(scratch), len(hh))
		}
		for i, e := range hh {
			if scratch[i] != e.Count {
				t.Fatalf("%s θ=%g: HeadCounts[%d] = %d, HeavyHitters[%d].Count = %d", where, theta, i, scratch[i], i, e.Count)
			}
		}
	}
	return scratch
}

// TestHeadCountsMatchesHeavyHitters is the differential check of the
// solver's snapshot: after every slab of a skew sweep, at capacities
// below and above the key universe (so the walk meets evictions,
// in-place increments, relinks and batched offers), after a Merge and a
// Clone, the counts-only bucket walk returns exactly the
// counts the reporting path returns, in the same order, reusing one
// scratch slice throughout.
func TestHeadCountsMatchesHeavyHitters(t *testing.T) {
	var scratch []uint64
	for _, z := range []float64{0.6, 0.8, 1.1, 1.4, 2.0} {
		for _, capacity := range []int{16, 300, 5000} {
			stream := make([]string, 24000)
			workload.NewZipf(z, 2000, 24000, uint64(capacity)).NextBatch(stream)
			s, other := New(capacity), New(capacity)
			const slab = 1500
			for i := 0; i < len(stream); i += slab {
				for j, k := range stream[i : i+slab] {
					switch {
					case j%7 == 0:
						s.OfferDigestN(hashing.Digest(k), k, 3)
					case j%2 == 0:
						offer(other, k)
					default:
						offer(s, k)
					}
				}
				where := fmt.Sprintf("z=%.1f cap=%d after %d", z, capacity, i+slab)
				scratch = checkHeadCounts(t, where, s, scratch)
			}
			merged := s.Merge(other)
			scratch = checkHeadCounts(t, fmt.Sprintf("z=%.1f cap=%d merged", z, capacity), merged, scratch)
			for _, k := range stream[:slab] {
				offer(merged, k)
			}
			scratch = checkHeadCounts(t, fmt.Sprintf("z=%.1f cap=%d merged+offers", z, capacity), merged, scratch)
			scratch = checkHeadCounts(t, "clone", merged.Clone(), scratch)
		}
	}
}

// TestHeadCountsDoesNotAllocate: with a kept scratch slice the snapshot
// allocates nothing, which is what lets the D-Choices solver run inside
// the zero-allocation window.
func TestHeadCountsDoesNotAllocate(t *testing.T) {
	s := New(4000)
	gen, one := workload.NewZipf(0.9, 3000, 60000, 3), make([]string, 1)
	for gen.NextBatch(one) == 1 {
		offer(s, one[0])
	}
	scratch := s.HeadCounts(1e-4, nil)
	if len(scratch) < 100 {
		t.Fatalf("head of %d keys is too small to mean anything", len(scratch))
	}
	if avg := testing.AllocsPerRun(100, func() {
		scratch = s.HeadCounts(1e-4, scratch)
	}); avg != 0 {
		t.Fatalf("HeadCounts allocates %.2f allocs/op with a kept slice, want 0", avg)
	}
}

package core

import (
	"fmt"
	"testing"

	"slb/internal/hashing"
	"slb/internal/workload"
)

// storeBytes is the size of the candidate store, the quantity
// candCacheBytes bounds.
func (cc *candCache) storeBytes() int { return 4 * len(cc.cands) }

// TestCandCacheEnsureHeadCapacity pins the sizing rule on what it is
// for: the store stays within candCacheBytes whatever head and d the
// solver reports, a 2,816-key head at d = 91 (n = 4096, z = 0.8) fits
// whole, the entry count never shrinks at an unchanged stride, a
// wobbling d does not re-lay the cache out — and lookups after a regrow
// or a re-stride return the same candidate lists (candidates are a pure
// function of (digest, d)).
func TestCandCacheEnsureHeadCapacity(t *testing.T) {
	const n = 4096
	f := hashing.NewFamily(n, 99)
	cc := newCandCache(n, 2)
	if cc.sets != candCacheSets(n) {
		t.Fatalf("initial sets = %d, want %d", cc.sets, candCacheSets(n))
	}
	if cc.storeBytes() > 64<<10 {
		t.Fatalf("a fresh cache reserves %d bytes before any solve", cc.storeBytes())
	}

	type probe struct {
		dg KeyDigest
		d  int
	}
	probes := []probe{
		{hashing.Digest("alpha"), 89},
		{hashing.Digest("beta"), 91},
		{hashing.Digest("gamma"), 93},
	}
	derive := func() [][]int32 {
		out := make([][]int32, len(probes))
		for i, pr := range probes {
			cand, _ := cc.lookup(pr.dg, pr.d, f)
			out[i] = append([]int32(nil), cand...)
		}
		return out
	}
	same := func(stage string, before, after [][]int32) {
		t.Helper()
		for i := range before {
			if len(after[i]) != len(before[i]) {
				t.Fatalf("%s: probe %d: list length %d → %d", stage, i, len(before[i]), len(after[i]))
			}
			for j := range after[i] {
				if after[i][j] != before[i][j] {
					t.Fatalf("%s: probe %d: candidate %d changed: %d → %d", stage, i, j, before[i][j], after[i][j])
				}
			}
		}
	}

	cc.fit(10, 93)
	before := derive()
	sets := cc.sets

	// A head below half the current capacity must not grow.
	cc.fit(10, 93)
	if cc.sets != sets {
		t.Fatalf("premature growth to %d sets for a 10-key head", cc.sets)
	}

	// The measured head: every key gets an entry, with room to spare.
	cc.fit(2816, 91)
	if got := cc.sets * candWays; got < 2*2816 {
		t.Fatalf("%d entries for a 2,816-key head at d = 91, want ≥ %d", got, 2*2816)
	}
	if cc.sets&(cc.sets-1) != 0 {
		t.Fatalf("set count %d is not a power of two", cc.sets)
	}
	if cc.storeBytes() > candCacheBytes {
		t.Fatalf("store is %d bytes, budget %d", cc.storeBytes(), candCacheBytes)
	}
	same("regrow", before, derive())

	// The solver's wobble stays inside the reservation: no re-layout.
	grown, stride := cc.sets, cc.stride
	for _, d := range []int{90, 92, 89, 93, 91} {
		cc.fit(2816, d)
		if cc.sets != grown || cc.stride != stride {
			t.Fatalf("d = %d re-laid the cache out: %d sets × %d → %d sets × %d", d, grown, stride, cc.sets, cc.stride)
		}
	}
	// Growth never reverses at an unchanged stride.
	cc.fit(1, 91)
	if cc.sets != grown {
		t.Fatalf("cache shrank to %d sets", cc.sets)
	}

	// A much larger d re-strides up, a much smaller one back down; the
	// budget binds either way and the lists come back bit-identical.
	cc.fit(111, 2493)
	if cc.stride < 2493+candDSlack(2493) || cc.storeBytes() > candCacheBytes {
		t.Fatalf("d = 2493: stride %d, store %d bytes", cc.stride, cc.storeBytes())
	}
	if got := cc.sets * candWays; got < 2*111 {
		t.Fatalf("%d entries for a 111-key head at d = 2493, want ≥ %d", got, 2*111)
	}
	cc.fit(2816, 91)
	if cc.stride > 2*stride || cc.sets != grown {
		t.Fatalf("re-stride down gave %d sets × %d, want %d × ≈%d", cc.sets, cc.stride, grown, stride)
	}
	same("re-stride", before, derive())

	// The cap binds: an absurd head cannot exceed the budget.
	cc.fit(1<<20, 91)
	if cc.storeBytes() > candCacheBytes {
		t.Fatalf("grew past the budget: %d bytes", cc.storeBytes())
	}
}

// TestCandCacheMaxEntries pins the cap's shape: candCacheBytes of
// candidate storage at the entry's stride, floored at the 32-entry
// static default.
func TestCandCacheMaxEntries(t *testing.T) {
	for _, tc := range []struct{ stride, want int }{
		{8, candCacheBytes / 32},
		{104, candCacheBytes / (4 * 104)}, // d = 91: 10,082 entries
		{8192, 128},
		{65536, 32},   // large stride: the 32-entry floor binds
		{1 << 20, 32}, // absurd stride: still the floor
	} {
		if got := candCacheMaxEntries(tc.stride); got != tc.want {
			t.Errorf("candCacheMaxEntries(%d) = %d, want %d", tc.stride, got, tc.want)
		}
	}
	for _, tc := range []struct{ d, n, want int }{
		{2, 64, 8},
		{91, 4096, 104},
		{2493, 4096, 2840},
		{60, 64, 64}, // capped at n
		{4000, 4096, 4096},
	} {
		if got := candStride(tc.d, tc.n); got != tc.want {
			t.Errorf("candStride(%d, %d) = %d, want %d", tc.d, tc.n, got, tc.want)
		}
	}
}

// TestDChoicesCacheGrowsWithObservedHead drives a D-Choices instance
// with a low θ — a head of hundreds of keys, far beyond the static
// 32-entry cache — and checks the solver grew the cache to what the
// sketch observed. Decision parity across the growth is covered by
// TestRoutingMatchesReference and TestDChoicesMatchesReference (a
// regrown cache re-derives identical candidate lists).
func TestDChoicesCacheGrowsWithObservedHead(t *testing.T) {
	c := cfg(64)
	c.Theta = 0.001 // hundreds of head keys
	p := NewDChoices(c)
	gen := workload.NewZipf(0.8, 500, 40_000, 13)
	keys := make([]string, 256)
	digs := make([]KeyDigest, 256)
	dst := make([]int, 256)
	for {
		n := gen.NextBatch(keys)
		if n == 0 {
			break
		}
		p.RouteBatchDigests(keys[:n], digs, dst)
	}
	if got, init := p.cache.sets*candWays, candCacheSets(64)*candWays; got <= init {
		t.Fatalf("cache stayed at %d entries under a several-hundred-key head (initial %d)", got, init)
	}
}

// TestCandCacheWindowServesExactPrefixes pins the derivation window: one
// cached derivation must serve every d from its top down to the bottom
// of its window with exactly the list a derivation at that d alone
// produces — the deduplicated first d buckets in first-occurrence order
// — at small d (a 4-wide window), at large d (64-wide) and near n, where
// duplicates are dense.
func TestCandCacheWindowServesExactPrefixes(t *testing.T) {
	for _, n := range []int{64, 300, 4096} {
		f := hashing.NewFamily(n, 5)
		for _, d0 := range []int{2, 40, n / 2, n - 40, n - 3} {
			if d0 < 2 {
				continue
			}
			cc := newCandCache(n, d0)
			for k := 0; k < 8; k++ {
				dg := hashing.Digest(fmt.Sprintf("key-%d-%d-%d", n, d0, k))
				cc.lookup(dg, d0, f) // the derivation every later d is served from
				misses := cc.misses
				top := d0 + candDSlack(d0)
				if top > n {
					top = n
				}
				if w := candDWindow(int32(top)); w < 4 || w > 64 || w < 2*int32(candDSlack(d0)) {
					t.Fatalf("n=%d d0=%d: window %d", n, d0, w)
				}
				for d := top; d > top-int(candDWindow(int32(top))) && d >= 1; d-- {
					got, _ := cc.lookup(dg, d, f)
					var want []int32
					seen := map[int32]bool{}
					for i := 0; i < d; i++ {
						if w := int32(f.BucketDigest(i, dg, n)); !seen[w] {
							seen[w] = true
							want = append(want, w)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("n=%d d0=%d d=%d: %d candidates, want %d", n, d0, d, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("n=%d d0=%d d=%d: candidate %d is %d, want %d", n, d0, d, i, got[i], want[i])
						}
					}
				}
				if cc.misses != misses {
					t.Fatalf("n=%d d0=%d: %d lookups inside the window re-derived", n, d0, cc.misses-misses)
				}
			}
		}
	}
}

// TestForcedDFitsCacheToHead checks that a pinned d < n fits its
// candidate cache to the observed head as a solving D-C does: on a
// Zipf stream whose head outgrows the static 32 entries, ForcedD at
// D-C's own d must miss at most twice as often as D-C, where it used to
// keep the static entries and re-derive on most head runs. Routing is
// unaffected (TestRoutingMatchesReference covers Greedy-d).
func TestForcedDFitsCacheToHead(t *testing.T) {
	msgs := int64(1 << 20)
	if testing.Short() || raceEnabled {
		msgs = 1 << 18
	}
	for _, tc := range []struct {
		z float64
		d int
	}{{1.2, 25}, {0.8, 4}} {
		keys := collectKeys(workload.NewZipf(tc.z, 10_000, msgs, 42))
		c := Config{Workers: 100, Seed: 42}
		dc, forced := NewDChoices(c), NewForcedD(c, tc.d)
		digs := make([]KeyDigest, 256)
		dst := make([]int, 256)
		for i := 0; i < len(keys); i += 256 {
			dc.RouteBatchDigests(keys[i:i+256], digs, dst)
			forced.RouteBatchDigests(keys[i:i+256], digs, dst)
		}
		ds, fs := dc.RouteStats(), forced.RouteStats()
		if fs.CandMisses > 2*ds.CandMisses {
			t.Errorf("z=%.1f: ForcedD(%d) missed %d candidate lookups, D-C (d = %d) %d", tc.z, tc.d, fs.CandMisses, ds.D, ds.CandMisses)
		}
	}
}

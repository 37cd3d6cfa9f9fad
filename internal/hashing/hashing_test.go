package hashing

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewFamilyPanicsOnBadSize(t *testing.T) {
	for _, size := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFamily(%d) did not panic", size)
				}
			}()
			NewFamily(size, 1)
		}()
	}
}

func TestFamilyDeterminism(t *testing.T) {
	a := NewFamily(8, 42)
	b := NewFamily(8, 42)
	keys := []string{"", "a", "key-1", "another key", "\x00\xff"}
	for i := 0; i < 8; i++ {
		for _, k := range keys {
			if a.HashDigest(i, Digest(k)) != b.HashDigest(i, Digest(k)) {
				t.Fatalf("family not deterministic for member %d key %q", i, k)
			}
		}
	}
}

func TestFamilySeedsDiffer(t *testing.T) {
	a := NewFamily(4, 1)
	b := NewFamily(4, 2)
	same := 0
	for i := 0; i < 4; i++ {
		if a.HashDigest(i, Digest("probe")) == b.HashDigest(i, Digest("probe")) {
			same++
		}
	}
	if same == 4 {
		t.Fatal("families with different seeds produced identical hashes")
	}
}

func TestFamilyMembersIndependent(t *testing.T) {
	f := NewFamily(2, 7)
	n := 10
	// Over many keys, the joint distribution of (F1(k), F2(k)) should fill
	// the n×n grid; collisions F1(k)==F2(k) should occur at roughly rate 1/n.
	keys := 20000
	coll := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if f.BucketDigest(0, Digest(k), n) == f.BucketDigest(1, Digest(k), n) {
			coll++
		}
	}
	got := float64(coll) / float64(keys)
	if math.Abs(got-1.0/float64(n)) > 0.02 {
		t.Fatalf("collision rate %f, want ≈ %f", got, 1.0/float64(n))
	}
}

func TestBucketUniformity(t *testing.T) {
	f := NewFamily(1, 99)
	n := 16
	total := 160000
	counts := make([]int, n)
	for i := 0; i < total; i++ {
		counts[f.BucketDigest(0, Digest(fmt.Sprintf("uniform-%d", i)), n)]++
	}
	// Chi-squared test with df = 15; 99.9% critical value ≈ 37.7.
	expected := float64(total) / float64(n)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Fatalf("chi-squared %f exceeds 99.9%% critical value; distribution skewed: %v", chi2, counts)
	}
}

func TestBucketRangeProperty(t *testing.T) {
	f := NewFamily(3, 11)
	prop := func(key string, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		for i := 0; i < 3; i++ {
			b := f.BucketDigest(i, Digest(key), n)
			if b < 0 || b >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAvalancheLowBits(t *testing.T) {
	// Sequentially numbered keys must not map to sequential buckets; check
	// the low-bit quality of the finalizer by ensuring runs are broken up.
	f := NewFamily(1, 5)
	sameAsPrev := 0
	prev := -1
	for i := 0; i < 1000; i++ {
		b := f.BucketDigest(0, Digest(fmt.Sprintf("k%08d", i)), 2)
		if b == prev {
			sameAsPrev++
		}
		prev = b
	}
	// For a fair coin, ~500 expected; alarm only on gross failure.
	if sameAsPrev < 350 || sameAsPrev > 650 {
		t.Fatalf("low-bit behaviour suspicious: %d/1000 repeats", sameAsPrev)
	}
}

// refDigest is a straightforward reference FNV-1a, written independently
// of the package implementation.
func refDigest(key string) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(key) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// refBucket is a from-scratch reference for the full digest→candidate
// path: FNV-1a digest, multiply-add with the member's seeded pair,
// murmur avalanche, Lemire multiply-shift reduction. It pins the
// digest-based candidates against an implementation that shares no code
// with the package.
func refBucket(mul, add uint64, key string, n int) int {
	h := mul*refDigest(key) + add
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	// Lemire reduction: high word of the 128-bit product h × n.
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

func TestDigestMatchesReference(t *testing.T) {
	for _, k := range []string{"", "a", "k0", "key-123", "another key", "\x00\xff", "日本語"} {
		if got, want := uint64(Digest(k)), refDigest(k); got != want {
			t.Fatalf("Digest(%q) = %#x, reference FNV-1a %#x", k, got, want)
		}
	}
}

func TestBucketDigestMatchesReference(t *testing.T) {
	// Re-derive the member seed pairs exactly as NewFamily documents: a
	// SplitMix64 stream from the base seed, multiplier forced odd.
	const baseSeed = 42
	split := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	muls := make([]uint64, 4)
	adds := make([]uint64, 4)
	s := uint64(baseSeed)
	for i := range muls {
		s += 0x9e3779b97f4a7c15
		muls[i] = split(s) | 1
		s += 0x9e3779b97f4a7c15
		adds[i] = split(s)
	}
	f := NewFamily(4, baseSeed)
	for i := 0; i < 4; i++ {
		for j := 0; j < 200; j++ {
			k := fmt.Sprintf("ref-key-%d", j)
			for _, n := range []int{1, 2, 13, 50, 100} {
				if got, want := f.BucketDigest(i, Digest(k), n), refBucket(muls[i], adds[i], k, n); got != want {
					t.Fatalf("member %d key %q n=%d: BucketDigest = %d, reference %d", i, k, n, got, want)
				}
			}
		}
	}
}

func TestCrossMemberUniformity(t *testing.T) {
	// Chi-squared uniformity for every member of a d=4 family — the
	// members D-Choices actually uses — not just member 0.
	f := NewFamily(4, 123)
	n := 16
	total := 80000
	for i := 0; i < 4; i++ {
		counts := make([]int, n)
		for j := 0; j < total; j++ {
			counts[f.BucketDigest(i, Digest(fmt.Sprintf("cmu-%d", j)), n)]++
		}
		expected := float64(total) / float64(n)
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		// df = 15; 99.9% critical value ≈ 37.7.
		if chi2 > 37.7 {
			t.Fatalf("member %d chi-squared %f exceeds 99.9%% critical value: %v", i, chi2, counts)
		}
	}
}

func TestPairwiseMemberIndependence(t *testing.T) {
	// For every pair of members in a d=4 family, the joint bucket
	// distribution must fill the n×n grid at the product rate: a
	// chi-squared test over the joint cells.
	f := NewFamily(4, 9)
	n := 8
	total := 64000
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			joint := make([]int, n*n)
			for j := 0; j < total; j++ {
				k := fmt.Sprintf("pair-%d", j)
				d := Digest(k)
				joint[f.BucketDigest(a, d, n)*n+f.BucketDigest(b, d, n)]++
			}
			expected := float64(total) / float64(n*n)
			chi2 := 0.0
			for _, c := range joint {
				diff := float64(c) - expected
				chi2 += diff * diff / expected
			}
			// df = 63; 99.9% critical value ≈ 103.4.
			if chi2 > 103.4 {
				t.Fatalf("members (%d,%d) joint chi-squared %f: not independent", a, b, chi2)
			}
		}
	}
}

func BenchmarkHash(b *testing.B) {
	f := NewFamily(2, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.HashDigest(i&1, Digest("benchmark-key-with-typical-length"))
	}
}

func BenchmarkBucketsViaDigest(b *testing.B) {
	// The d-candidate derivation the partitioners pay per message: one
	// digest, then d mixes.
	f := NewFamily(4, 1)
	dst := make([]int, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := Digest("benchmark-key-with-typical-length")
		for j := range dst {
			dst[j] = f.BucketDigest(j, d, 50)
		}
	}
}

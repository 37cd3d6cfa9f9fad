// Package hashing provides a deterministic family of independent hash
// functions F_1..F_d mapping string keys onto [0, n) worker indices.
//
// The paper's Greedy-d process requires d independent uniform hash
// functions, and the partitioner sits on the per-message hot path of a
// DSPE, so the family is split into two stages:
//
//  1. Digest scans the key bytes ONCE with 64-bit FNV-1a, producing a
//     KeyDigest — the canonical 64-bit representation of a key that all
//     routing layers operate on.
//  2. HashDigest/BucketDigest apply a per-member multiply-shift
//     universal hash to the digest and finish with a murmur-style
//     avalanche, deriving all d candidate buckets from that single
//     string scan without rescanning the key.
//
// There is no per-key form: a caller digests once and passes the
// digest, so no layer can re-scan the key bytes. Bucket reduction uses
// Lemire's multiply-shift instead of a modulo, avoiding a 64-bit
// hardware division per candidate. All functions are pure and
// deterministic, so simulation runs are exactly reproducible.
package hashing

import "math/bits"

// Offset and prime of the 64-bit FNV-1a hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// seedMix is the SplitMix64 increment; used to derive per-index seeds.
const seedMix = 0x9e3779b97f4a7c15

// KeyDigest is the 64-bit digest of a key: the result of one FNV-1a scan
// over the key bytes, before any per-member mixing. Every layer of the
// routing path (candidate choice, sketches, engines) identifies keys by
// digest; the invariant "all senders map a key to the same candidates"
// holds because Digest is a pure function of the key bytes and every
// family member derives its bucket from the digest alone. Two distinct
// keys collide only with probability ≈ 2⁻⁶⁴ per pair, in which case they
// are routed (and counted) as one key — harmless for load balancing.
type KeyDigest uint64

// digestHook, when non-nil, is invoked once per Digest call. It exists
// for tests that pin the hash-once invariant (each message's key bytes
// are scanned exactly once end to end); production code never sets it,
// so the cost is one predicted branch per digest.
var digestHook func()

// SetDigestHook installs (or, with nil, removes) the per-Digest test
// hook. Callers must install the hook before any goroutine that digests
// and remove it after all such goroutines have been joined; the hook
// itself must be safe for concurrent invocation (e.g. an atomic
// counter increment).
func SetDigestHook(f func()) { digestHook = f }

// Digest returns the 64-bit digest of key: a single FNV-1a pass over the
// key bytes. It is the only place in the routing path that touches the
// key's bytes.
func Digest(key string) KeyDigest {
	if digestHook != nil {
		digestHook()
	}
	var h uint64 = fnvOffset64
	for j := 0; j < len(key); j++ {
		h ^= uint64(key[j])
		h *= fnvPrime64
	}
	return KeyDigest(h)
}

// Family is a deterministic family of hash functions over string keys.
// The zero value is not usable; construct with NewFamily.
//
// Each member i carries an independently seeded pair (mul_i, add_i) and
// maps a digest d to finalize(mul_i·d + add_i): a multiply-shift
// universal hash (Dietzfelbinger et al.) composed with a bijective
// avalanche. Independent multipliers make distinct members behave as
// independently drawn hash functions of the digest — a simple
// xor-with-seed before one fixed avalanche does NOT (the pair
// (f(x), f(x⊕c)) retains measurable structure, enough to visibly skew
// Greedy-2 at small n).
type Family struct {
	mul []uint64 // odd multipliers, one per member
	add []uint64
}

// NewFamily returns a family of size members derived from the given base
// seed. Two families built from the same seed are identical; distinct
// members of one family behave as independent hash functions.
func NewFamily(size int, seed uint64) *Family {
	if size <= 0 {
		panic("hashing: family size must be positive")
	}
	mul := make([]uint64, size)
	add := make([]uint64, size)
	s := seed
	for i := range mul {
		s += seedMix
		mul[i] = splitmix64(s) | 1 // odd, so d ↦ mul·d is a bijection
		s += seedMix
		add[i] = splitmix64(s)
	}
	return &Family{mul: mul, add: add}
}

// HashDigest returns the 64-bit hash of a pre-computed key digest under
// family member i, so all members share one string scan.
func (f *Family) HashDigest(i int, d KeyDigest) uint64 {
	return finalize(f.mul[i]*uint64(d) + f.add[i])
}

// BucketDigest returns family member i's choice of worker for a key
// digest among n workers, i.e. F_i(key) ∈ [0, n). The reduction is
// Lemire's multiply-shift (unbiased for n ≪ 2⁶⁴ up to a negligible
// 2⁻⁶⁴-scale deviation), avoiding a hardware divide on the hot path.
func (f *Family) BucketDigest(i int, d KeyDigest, n int) int {
	hi, _ := bits.Mul64(f.HashDigest(i, d), uint64(n))
	return int(hi)
}

// Bounded reduces a uniform 64-bit value x to [0, n) with Lemire's
// multiply-shift: the same unbiased-up-to-2⁻⁶⁴ reduction BucketDigest
// uses, exported for callers that need a bounded draw from their own
// mixed values (e.g. the reduce stage's shard choice) without the
// modulo bias of x % n or a hardware divide.
func Bounded(x, n uint64) uint64 {
	hi, _ := bits.Mul64(x, n)
	return hi
}

// splitmix64 is the SplitMix64 output function: a fast, high-quality
// bijective mixer used to stretch one seed into many.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// finalize applies a murmur3-style avalanche so that every bit of the
// result depends on all input bits; plain FNV-1a (and a raw xor with the
// member seed) is weak in the bits the bucket reduction consumes.
func finalize(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Mix64 avalanches a digest into a uniformly distributed 64-bit value;
// exported for callers that need to index hash tables by digest (the
// digest itself is raw FNV-1a state and has weak low bits).
func Mix64(d KeyDigest) uint64 { return finalize(uint64(d)) }

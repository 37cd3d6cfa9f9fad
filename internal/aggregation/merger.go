package aggregation

import (
	"math"
	"math/bits"

	"slb/internal/hashing"
)

// Value is the fixed-size merge state of one (window, key) entry. It
// lives inline in the partial tables' slots and travels inside flushed
// Partials, so pluggable mergers keep the tables' zero-allocation
// steady state: no merger ever boxes its state on the heap. The two
// words are the merger's to interpret — a running sum, a (min, count)
// pair, or sixteen packed 6-bit HLL registers.
type Value [2]uint64

// Merger is the pluggable merge operator of the two-phase aggregation:
// a commutative, associative fold over per-message samples, computed
// incrementally at the workers (Observe) and combined across workers'
// partials at the reducer (Combine). The zero Value must be the
// operator's identity. Implementations must be stateless (one shared
// instance serves every worker and reducer shard concurrently) and
// must never allocate in Observe/Combine — they run on the engines'
// hot paths.
//
// The message COUNT is tracked separately from the merged value:
// counts drive the reducer's completeness-based window close and are
// the same for every merger, while the Value is what the application
// asked to compute (Final.Value).
type Merger interface {
	// Observe folds n observations of sample into v (the worker side).
	// Engines draw the sample per message by stream.Source's sampling
	// contract (the generator's recorded value, else 1); the
	// batched form folds n identical observations in one call.
	Observe(v *Value, sample int64, n int64)
	// Combine folds src into dst (the reducer side, merging partials
	// produced on different workers). Must agree with Observe:
	// combining two observed states equals observing the union.
	Combine(dst *Value, src Value)
	// Result renders the merged state as the operator's final value:
	// the count, the sum, the min/max, or the estimated distinct count.
	Result(v Value) int64
}

// Built-in mergers. All are stateless singletons, safe to share across
// workers and reducer shards.
var (
	// CountMerger counts observations; its Result always equals the
	// entry's message count, so it reproduces the pre-Merger two-phase
	// count aggregation exactly. This is the default everywhere a
	// Merger is not given.
	CountMerger Merger = countMerger{}
	// SumMerger sums samples (64-bit wrapping integer sum).
	SumMerger Merger = sumMerger{}
	// MinMerger keeps the smallest sample observed.
	MinMerger Merger = minMaxMerger{min: true}
	// MaxMerger keeps the largest sample observed.
	MaxMerger Merger = minMaxMerger{}
	// DistinctMerger estimates the number of DISTINCT samples per
	// (window, key) with a 16-register HyperLogLog in the Value's 128
	// bits: registers merge across workers by element-wise max, so the
	// estimate is independent of how key splitting scattered the
	// samples. Expected error ≈ 1.04/√16 ≈ 26%; exact (via linear
	// counting) for the small cardinalities most windows hold.
	DistinctMerger Merger = distinctMerger{}
)

type countMerger struct{}

func (countMerger) Observe(v *Value, _ int64, n int64) { v[0] += uint64(n) }
func (countMerger) Combine(dst *Value, src Value)      { dst[0] += src[0] }
func (countMerger) Result(v Value) int64               { return int64(v[0]) }

type sumMerger struct{}

func (sumMerger) Observe(v *Value, sample int64, n int64) {
	v[0] += uint64(sample * n)
}
func (sumMerger) Combine(dst *Value, src Value) { dst[0] += src[0] }
func (sumMerger) Result(v Value) int64          { return int64(v[0]) }

// minMaxMerger keeps an extremum in v[0] and the observation count in
// v[1]; count == 0 marks the identity (no sample yet), so the zero
// Value needs no sentinel initialization.
type minMaxMerger struct{ min bool }

func (m minMaxMerger) better(a, b int64) bool {
	if m.min {
		return a < b
	}
	return a > b
}
func (m minMaxMerger) Observe(v *Value, sample int64, n int64) {
	if v[1] == 0 || m.better(sample, int64(v[0])) {
		v[0] = uint64(sample)
	}
	v[1] += uint64(n)
}
func (m minMaxMerger) Combine(dst *Value, src Value) {
	if src[1] == 0 {
		return
	}
	if dst[1] == 0 || m.better(int64(src[0]), int64(dst[0])) {
		dst[0] = src[0]
	}
	dst[1] += src[1]
}
func (m minMaxMerger) Result(v Value) int64 { return int64(v[0]) }

// distinctMerger: 16 HLL registers of 6 bits packed into the Value —
// registers 0..9 in v[0] (bits 0..59), registers 10..15 in v[1]
// (bits 0..35).
type distinctMerger struct{}

const (
	hllRegs      = 16
	hllRegBits   = 6
	hllRegMask   = (1 << hllRegBits) - 1
	hllLoRegs    = 10 // registers stored in v[0]
	hllAlpha16M2 = 0.673 * hllRegs * hllRegs
)

func hllGet(v *Value, i int) uint64 {
	if i < hllLoRegs {
		return (v[0] >> (hllRegBits * i)) & hllRegMask
	}
	return (v[1] >> (hllRegBits * (i - hllLoRegs))) & hllRegMask
}

func hllSet(v *Value, i int, x uint64) {
	if i < hllLoRegs {
		shift := hllRegBits * i
		v[0] = v[0]&^(uint64(hllRegMask)<<shift) | x<<shift
	} else {
		shift := hllRegBits * (i - hllLoRegs)
		v[1] = v[1]&^(uint64(hllRegMask)<<shift) | x<<shift
	}
}

func (distinctMerger) Observe(v *Value, sample int64, _ int64) {
	// n identical observations add one distinct element, so the batch
	// count is irrelevant. The sample is avalanched first: raw samples
	// are often small integers whose bits HLL cannot use directly.
	h := hashing.Mix64(hashing.KeyDigest(uint64(sample)))
	idx := int(h >> 60)                               // top 4 bits pick the register
	rho := uint64(bits.LeadingZeros64(h<<4|1<<3)) + 1 // rank in the low 60 bits
	if rho > hllGet(v, idx) {
		hllSet(v, idx, rho)
	}
}

func (distinctMerger) Combine(dst *Value, src Value) {
	for i := 0; i < hllRegs; i++ {
		if r := hllGet(&src, i); r > hllGet(dst, i) {
			hllSet(dst, i, r)
		}
	}
}

func (distinctMerger) Result(v Value) int64 {
	var invSum float64
	zeros := 0
	for i := 0; i < hllRegs; i++ {
		r := hllGet(&v, i)
		invSum += math.Ldexp(1, -int(r))
		if r == 0 {
			zeros++
		}
	}
	e := hllAlpha16M2 / invSum
	if e <= 2.5*hllRegs && zeros > 0 {
		// Small-range correction: linear counting is exact-ish here.
		e = hllRegs * math.Log(float64(hllRegs)/float64(zeros))
	}
	return int64(math.Round(e))
}

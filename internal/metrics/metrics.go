// Package metrics provides the measurement machinery shared by the
// simulator and the DSPE engines: the paper's imbalance metric I(t)
// over worker load vectors, and a reservoir-based quantile estimator
// for latency percentiles. Key replicas (the memory overhead) are
// counted where the state lives: the aggregation reducer's slots, and
// the simulator's own per-key worker sets.
package metrics

import (
	"math"
	"sort"

	"slb/internal/hashing"
)

// Imbalance returns I = max(load) − avg(load) for a vector of absolute
// loads, normalized by total so the result is a fraction of the stream
// (the definition in Section II). An empty or all-zero vector yields 0.
func Imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var max, sum int64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 0
	}
	return float64(max)/float64(sum) - 1.0/float64(len(loads))
}

// ---------------------------------------------------------------------------
// Quantiles

// Quantiles estimates percentiles from a stream of float64 samples using
// uniform reservoir sampling (Vitter's algorithm R) with a deterministic
// PRNG, so results are reproducible. With the default capacity the
// estimator is exact for runs below 64k samples.
type Quantiles struct {
	cap     int
	samples []float64
	seen    int64
	rng     uint64
	sorted  bool
}

// NewQuantiles returns an estimator keeping at most capacity samples;
// capacity ≤ 0 selects the default of 65536.
func NewQuantiles(capacity int) *Quantiles {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Quantiles{cap: capacity, rng: 0x9e3779b97f4a7c15}
}

func (q *Quantiles) next() uint64 {
	q.rng += 0x9e3779b97f4a7c15
	z := q.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Add feeds one sample.
func (q *Quantiles) Add(v float64) {
	q.seen++
	q.sorted = false
	// Append (admission probability 1) only while the retained samples
	// are exhaustive — after a down-sampling Merge the reservoir can be
	// below capacity yet already represent a longer stream, and new
	// samples must then pass the same len/seen admission test as
	// everything else or they would be overweighted.
	if len(q.samples) < q.cap && q.seen-1 == int64(len(q.samples)) {
		q.samples = append(q.samples, v)
		return
	}
	// Replace a random element with probability len/seen. The slot draw
	// uses Lemire's multiply-shift reduction (unbiased up to a 2⁻⁶⁴-scale
	// deviation) instead of a modulo, which is biased toward low slots
	// whenever seen does not divide 2⁶⁴.
	j := hashing.Bounded(q.next(), uint64(q.seen))
	if j < uint64(len(q.samples)) {
		q.samples[j] = v
	}
}

// Count returns the number of samples fed so far.
func (q *Quantiles) Count() int64 { return q.seen }

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of the samples, NaN when
// empty.
func (q *Quantiles) Quantile(p float64) float64 {
	if len(q.samples) == 0 {
		return math.NaN()
	}
	if !q.sorted {
		sort.Float64s(q.samples)
		q.sorted = true
	}
	if p <= 0 {
		return q.samples[0]
	}
	if p >= 1 {
		return q.samples[len(q.samples)-1]
	}
	// Linear interpolation between order statistics (type-7 estimator):
	// truncating p·(len−1) to an index would bias every percentile low —
	// with 100 samples the old floor made "p99" return the 98th order
	// statistic exactly, never interpolating toward the maximum.
	pos := p * float64(len(q.samples)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 || lo+1 == len(q.samples) {
		return q.samples[lo]
	}
	return q.samples[lo] + frac*(q.samples[lo+1]-q.samples[lo])
}

// Merge folds another estimator into this one with count-proportional
// (Vitter-style) weighting. Each retained sample of a reservoir stands
// for seen/len(samples) stream items; Merge draws without replacement
// from the two sample pools with probability proportional to the stream
// mass each pool still represents, so the result approximates a uniform
// reservoir over the two concatenated streams. A source that processed
// 100× the items contributes ≈100× the retained samples — pooled tail
// percentiles are dominated by whoever actually carried the traffic,
// not by an arbitrary per-source quota. When both inputs are exhaustive
// (below capacity) and fit, the merge is an exact concatenation.
// The argument is not modified.
func (q *Quantiles) Merge(o *Quantiles) {
	if o == nil || o.seen == 0 {
		return
	}
	if q.seen == 0 {
		q.samples = append(q.samples[:0], o.samples...)
		q.seen = o.seen
		q.sorted = false
		// Down-sample to capacity (uniform without-replacement removals),
		// or later Adds would only ever replace the first cap slots and
		// the overflow would become immortal.
		for len(q.samples) > q.cap {
			j := hashing.Bounded(q.next(), uint64(len(q.samples)))
			q.samples[j] = q.samples[len(q.samples)-1]
			q.samples = q.samples[:len(q.samples)-1]
		}
		return
	}
	q.sorted = false
	exhaustive := q.seen == int64(len(q.samples)) && o.seen == int64(len(o.samples))
	if exhaustive && len(q.samples)+len(o.samples) <= q.cap {
		q.samples = append(q.samples, o.samples...)
		q.seen += o.seen
		return
	}
	a := q.samples
	b := append([]float64(nil), o.samples...)
	// Per-sample stream mass: how many items each retained sample stands
	// for. The remaining pool masses ra/rb drive the draw probabilities.
	wa := float64(q.seen) / float64(len(a))
	wb := float64(o.seen) / float64(len(b))
	ra, rb := float64(q.seen), float64(o.seen)
	total := ra + rb
	// Merged size: bounded by capacity AND by each pool's ability to
	// supply its proportional share — pool p must cover k·(mass_p/total)
	// draws. Without this bound a small pool empties mid-merge and the
	// remaining draws are forced from the other pool, destroying the
	// weighting (e.g. a fully-retained 100-sample stream merged with a
	// down-sampled 9900-item stream would keep all 100 fast samples).
	k := q.cap
	if ka := int(float64(len(a)) * total / ra); ka < k {
		k = ka
	}
	if kb := int(float64(len(b)) * total / rb); kb < k {
		k = kb
	}
	merged := make([]float64, 0, k)
	for len(merged) < k {
		takeA := len(b) == 0
		if !takeA && len(a) > 0 {
			// P(draw from a) = ra / (ra + rb), via a 53-bit uniform.
			u := float64(q.next()>>11) / (1 << 53)
			takeA = u*(ra+rb) < ra
		}
		if takeA {
			j := hashing.Bounded(q.next(), uint64(len(a)))
			merged = append(merged, a[j])
			a[j] = a[len(a)-1]
			a = a[:len(a)-1]
			ra -= wa
		} else {
			j := hashing.Bounded(q.next(), uint64(len(b)))
			merged = append(merged, b[j])
			b[j] = b[len(b)-1]
			b = b[:len(b)-1]
			rb -= wb
		}
	}
	q.samples = merged
	q.seen += o.seen
}

// Mean returns the mean of the retained samples (≈ stream mean), NaN when
// empty.
func (q *Quantiles) Mean() float64 {
	if len(q.samples) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range q.samples {
		s += v
	}
	return s / float64(len(q.samples))
}

// Max returns the largest retained sample, NaN when empty.
func (q *Quantiles) Max() float64 {
	if len(q.samples) == 0 {
		return math.NaN()
	}
	m := q.samples[0]
	for _, v := range q.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

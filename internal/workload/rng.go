// Package workload provides deterministic skewed-workload generators: a
// finite-support Zipf sampler valid for any exponent z ≥ 0 (the standard
// library's Zipf requires s > 1), exponent calibration against a target
// head frequency, and synthetic stand-ins for the paper's real datasets
// (Wikipedia page visits, Twitter words, Twitter cashtags with concept
// drift). See DESIGN.md §4 for the substitution rationale.
package workload

// RNG is a SplitMix64 pseudo-random generator: tiny state, excellent
// statistical quality, fully deterministic across platforms. It is not
// cryptographically secure and must not be used for security purposes.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) { r.state = seed }

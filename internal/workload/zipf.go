package workload

import (
	"fmt"
	"math"

	"slb/internal/stream"
)

// ZipfProbs returns the probability vector of a Zipf distribution with
// exponent z over finite support {1..keys}: p_i ∝ i^−z, sorted in
// non-increasing order by construction. z = 0 yields the uniform
// distribution.
func ZipfProbs(z float64, keys int) []float64 {
	if keys <= 0 {
		panic("workload: ZipfProbs with non-positive key count")
	}
	p := make([]float64, keys)
	sum := 0.0
	for i := range p {
		p[i] = math.Pow(float64(i+1), -z)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// CalibrateZ finds the Zipf exponent whose most-frequent-key probability
// over the given support equals targetP1, by bisection. This is how the
// synthetic stand-ins for the paper's real datasets match the published
// p1 values at a different key-space scale.
func CalibrateZ(targetP1 float64, keys int) float64 {
	if keys <= 1 {
		panic("workload: CalibrateZ needs at least 2 keys")
	}
	if targetP1 <= 1.0/float64(keys) || targetP1 >= 1 {
		panic(fmt.Sprintf("workload: target p1 %g out of range (1/%d, 1)", targetP1, keys))
	}
	p1 := func(z float64) float64 {
		// p1 = 1 / H(z, keys)
		h := 0.0
		for i := 1; i <= keys; i++ {
			h += math.Pow(float64(i), -z)
		}
		return 1 / h
	}
	lo, hi := 0.0, 16.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if p1(mid) < targetP1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Zipf is a deterministic finite stream of keys drawn i.i.d. from a Zipf
// distribution. It implements stream.Generator. Keys are named by rank:
// rank r (0-based, hottest first) emits key "k<r>".
type Zipf struct {
	alias    *Alias
	keys     []string
	messages int64
	seed     uint64
	rng      *RNG
	emitted  int64
}

// NewZipf returns a Zipf generator with exponent z over `keys` distinct
// keys, emitting `messages` keys in total, seeded deterministically.
func NewZipf(z float64, keys int, messages int64, seed uint64) *Zipf {
	names := make([]string, keys)
	for i := range names {
		names[i] = "k" + itoa(i)
	}
	return &Zipf{
		alias:    NewAlias(ZipfProbs(z, keys)),
		keys:     names,
		messages: messages,
		seed:     seed,
		rng:      NewRNG(seed),
	}
}

// itoa is a minimal strconv.Itoa for non-negative ints, avoiding the
// import for this hot construction path.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// NextBatch implements stream.Generator: it fills dst with up to
// len(dst) keys in one call, with one bounds check and no interface
// dispatch per message.
func (g *Zipf) NextBatch(dst []string) int {
	room := g.messages - g.emitted
	if room <= 0 {
		return 0
	}
	if int64(len(dst)) > room {
		dst = dst[:room]
	}
	for i := range dst {
		dst[i] = g.keys[g.alias.Sample(g.rng)]
	}
	g.emitted += int64(len(dst))
	return len(dst)
}

// NextRank draws the next key's rank without formatting the key string;
// Drift names each rank by its own rotation.
func (g *Zipf) NextRank() (int, bool) {
	if g.emitted >= g.messages {
		return 0, false
	}
	g.emitted++
	return g.alias.Sample(g.rng), true
}

// Len implements stream.Generator.
func (g *Zipf) Len() int64 { return g.messages }

// Reset implements stream.Generator.
func (g *Zipf) Reset() {
	g.rng.Seed(g.seed)
	g.emitted = 0
}

var _ stream.Generator = (*Zipf)(nil)

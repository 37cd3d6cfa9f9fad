// Package stream defines the data model shared by all engines: keyed
// messages, finite key-stream generators, and per-stream statistics
// (the quantities reported in Table I of the paper).
package stream

import "fmt"

// Message is one stream tuple ⟨t, k, v⟩. Seq is a logical timestamp
// assigned by the producing source; engines that measure wall-clock or
// simulated latency keep their own clocks.
type Message struct {
	Seq int64
	Key string
	Val string
}

// Generator produces a finite sequence of keys. Implementations must be
// deterministic for a fixed configuration and seed so that different
// partitioning algorithms can be compared on byte-identical streams by
// re-instantiating the generator.
type Generator interface {
	// Next returns the next key, or ok=false when the stream is exhausted.
	Next() (key string, ok bool)
	// Len returns the total number of messages the generator will emit.
	Len() int64
	// Reset rewinds the generator to the beginning of the same sequence.
	Reset()
}

// BatchGenerator is implemented by generators with a batched emission
// fast path: NextBatch fills dst with the next keys of exactly the same
// sequence Next would produce, amortizing per-message call overhead.
// All generators in this module implement it; use the NextBatch helper
// to drive any Generator.
type BatchGenerator interface {
	Generator
	// NextBatch fills up to len(dst) keys into dst and returns how many
	// were produced; 0 means the stream is exhausted (when len(dst) > 0).
	NextBatch(dst []string) int
}

// NextBatch pulls up to len(dst) keys from gen, using its native batch
// path when available and falling back to per-message Next otherwise.
// It returns the number of keys filled; 0 means exhausted.
func NextBatch(gen Generator, dst []string) int {
	if bg, ok := gen.(BatchGenerator); ok {
		return bg.NextBatch(dst)
	}
	for i := range dst {
		k, ok := gen.Next()
		if !ok {
			return i
		}
		dst[i] = k
	}
	return len(dst)
}

// CheckDrawn reports a run whose generator delivered a different
// number of messages than the run planned (its Len, capped by the
// run's own message limit): a truncated input — a cut trace file — is
// an error, never a smaller run. It returns nil when drawn == planned.
func CheckDrawn(drawn, planned int64) error {
	if drawn == planned {
		return nil
	}
	return fmt.Errorf("stream ended after %d of the %d messages planned", drawn, planned)
}

// ValueBatchGenerator is implemented by generators whose messages carry
// an int64 payload sample alongside the key — recorded trace replays
// (tracefile version 2) and WithValues wrappers. The sample is what a
// windowed merger aggregates (aggregation.Merger.Observe).
//
// The engines' sampling contract, in precedence order:
//
//  1. the engine's AggValue hook, when set (an explicit per-run
//     override — it sees key and global emission sequence);
//  2. the generator's recorded values, when it implements this
//     interface and HasValues reports true;
//  3. the constant 1, making every sum-like merge a count.
type ValueBatchGenerator interface {
	Generator
	// NextBatchValues fills keys and vals in lockstep — vals[i] is the
	// payload of keys[i] — with up to len(keys) messages (len(vals)
	// must be ≥ len(keys)) and returns how many were produced. The key
	// sequence is exactly what NextBatch would produce.
	NextBatchValues(keys []string, vals []int64) int
	// HasValues reports whether the stream actually records payload
	// values; false means NextBatchValues fills the constant 1 (e.g. a
	// version-1 trace replayed through a value-aware reader).
	HasValues() bool
}

// Values returns gen's value-bearing view when it records real payload
// samples, or nil when it does not (engines then fall back to their
// AggValue hook or the constant 1; see ValueBatchGenerator).
func Values(gen Generator) ValueBatchGenerator {
	if vg, ok := gen.(ValueBatchGenerator); ok && vg.HasValues() {
		return vg
	}
	return nil
}

// NextBatchValues pulls up to len(keys) messages with their payload
// values, using gen's native lockstep path when available and falling
// back to NextBatch with constant-1 values otherwise. len(vals) must
// be ≥ len(keys).
func NextBatchValues(gen Generator, keys []string, vals []int64) int {
	if vg, ok := gen.(ValueBatchGenerator); ok {
		return vg.NextBatchValues(keys, vals)
	}
	n := NextBatch(gen, keys)
	for i := 0; i < n; i++ {
		vals[i] = 1
	}
	return n
}

// valueFunc attaches derived payload values to a key generator; see
// WithValues.
type valueFunc struct {
	Generator
	fn  func(key string, seq int64) int64
	seq int64
}

// WithValues wraps gen so each key carries the payload fn(key, seq),
// where seq is the message's position in the stream (0-based). The
// wrapper implements ValueBatchGenerator, so writing it through
// tracefile.Write produces a version-2 trace whose replay supplies the
// derived values as recorded data — the bridge from synthetic payload
// models to the record-once/replay-bit-identically workflow.
func WithValues(gen Generator, fn func(key string, seq int64) int64) ValueBatchGenerator {
	return &valueFunc{Generator: gen, fn: fn}
}

// Next implements Generator (the value is derived but unreported; use
// NextBatchValues for lockstep consumption).
func (g *valueFunc) Next() (string, bool) {
	k, ok := g.Generator.Next()
	if ok {
		g.seq++
	}
	return k, ok
}

// NextBatch implements BatchGenerator.
func (g *valueFunc) NextBatch(dst []string) int {
	n := NextBatch(g.Generator, dst)
	g.seq += int64(n)
	return n
}

// NextBatchValues implements ValueBatchGenerator.
func (g *valueFunc) NextBatchValues(keys []string, vals []int64) int {
	n := NextBatch(g.Generator, keys)
	for i := 0; i < n; i++ {
		vals[i] = g.fn(keys[i], g.seq+int64(i))
	}
	g.seq += int64(n)
	return n
}

// HasValues implements ValueBatchGenerator.
func (g *valueFunc) HasValues() bool { return true }

// Reset implements Generator.
func (g *valueFunc) Reset() {
	g.Generator.Reset()
	g.seq = 0
}

// Stats summarizes a key stream: the columns of Table I.
type Stats struct {
	Messages int64   // number of messages m
	Keys     int     // number of distinct keys |K|
	P1       float64 // relative frequency of the most frequent key
	TopKey   string  // identity of the most frequent key
}

// Collect consumes gen (resetting it first and after) and computes its
// exact statistics. It needs O(|K|) memory; intended for experiment
// reporting, not for the hot path.
func Collect(gen Generator) Stats {
	gen.Reset()
	counts := make(map[string]int64)
	var m int64
	buf := make([]string, 512)
	for {
		n := NextBatch(gen, buf)
		if n == 0 {
			break
		}
		for _, k := range buf[:n] {
			counts[k]++
		}
		m += int64(n)
	}
	gen.Reset()
	var top string
	var topCount int64
	for k, c := range counts {
		if c > topCount || (c == topCount && k < top) {
			top, topCount = k, c
		}
	}
	s := Stats{Messages: m, Keys: len(counts), TopKey: top}
	if m > 0 {
		s.P1 = float64(topCount) / float64(m)
	}
	return s
}

// SliceGenerator adapts a fixed []string to the Generator interface;
// useful in tests and tiny examples.
type SliceGenerator struct {
	keys []string
	pos  int
}

// FromSlice returns a Generator that replays keys in order.
func FromSlice(keys []string) *SliceGenerator {
	return &SliceGenerator{keys: keys}
}

// Next implements Generator.
func (g *SliceGenerator) Next() (string, bool) {
	if g.pos >= len(g.keys) {
		return "", false
	}
	k := g.keys[g.pos]
	g.pos++
	return k, true
}

// NextBatch implements BatchGenerator.
func (g *SliceGenerator) NextBatch(dst []string) int {
	n := copy(dst, g.keys[g.pos:])
	g.pos += n
	return n
}

// Len implements Generator.
func (g *SliceGenerator) Len() int64 { return int64(len(g.keys)) }

// Reset implements Generator.
func (g *SliceGenerator) Reset() { g.pos = 0 }

var _ BatchGenerator = (*SliceGenerator)(nil)

// ValuePuller adapts a Generator to per-message consumption of
// (key, payload) pairs through an internal prefetch slab filled via
// NextBatchValues, so engines that must pull one message at a time
// (e.g. a discrete-event loop) still drive the batch emission path.
// Generators without recorded values yield the constant 1; the key
// sequence is exactly the generator's.
type ValuePuller struct {
	gen    Generator
	keys   []string
	vals   []int64
	pos, n int
}

// NewValuePuller returns a ValuePuller with the given prefetch slab
// size.
func NewValuePuller(gen Generator, slab int) *ValuePuller {
	if slab <= 0 {
		slab = 256
	}
	return &ValuePuller{gen: gen, keys: make([]string, slab), vals: make([]int64, slab)}
}

// Next returns the next message's key and payload value.
func (p *ValuePuller) Next() (string, int64, bool) {
	if p.pos == p.n {
		p.n = NextBatchValues(p.gen, p.keys, p.vals)
		p.pos = 0
		if p.n == 0 {
			return "", 0, false
		}
	}
	k, v := p.keys[p.pos], p.vals[p.pos]
	p.pos++
	return k, v, true
}

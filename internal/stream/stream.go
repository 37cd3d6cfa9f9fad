// Package stream defines the data model shared by all engines: keyed
// messages, finite key-stream generators, one run's shared draw over a
// generator (Source), and per-stream statistics (the quantities
// reported in Table I of the paper).
//
// Input is pulled one way only: a Generator fills key slabs
// (NextBatch). Generators that record a payload sample per message
// also fill value slabs in lockstep (ValueBatchGenerator). The engines
// never call either directly; they draw through a Source, which owns
// the run's message cap, the payload-sampling contract and the
// short-stream check.
package stream

import (
	"fmt"
	"sync"
)

// Message is one stream tuple ⟨t, k, v⟩. Seq is a logical timestamp
// assigned by the producing source; engines that measure wall-clock or
// simulated latency keep their own clocks.
type Message struct {
	Seq int64
	Key string
	Val string
}

// Generator produces a finite sequence of keys, a slab at a time.
// Implementations must be deterministic for a fixed configuration and
// seed so that different partitioning algorithms can be compared on
// byte-identical streams by re-instantiating the generator.
//
// The sequence must not depend on the slab sizes a consumer asks for:
// draining with slabs of 1, 3 or 512 yields the same keys in the same
// order. The engines rely on this — dspe draws Config.Batch-sized
// slabs, simulator draws 512 clipped at its sketch-merge boundaries,
// eventsim draws 512 — so one generator drives all of them
// identically.
type Generator interface {
	// NextBatch fills up to len(dst) keys into dst and returns how many
	// were produced; 0 means the stream is exhausted (when len(dst) > 0).
	NextBatch(dst []string) int
	// Len returns the total number of messages the generator will emit.
	Len() int64
	// Reset rewinds the generator to the beginning of the same sequence.
	Reset()
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
// windowed merger aggregates (aggregation.Merger.Observe); which sample
// an engine uses is decided by Source (see its sampling contract).
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
// samples, or nil when it does not.
func Values(gen Generator) ValueBatchGenerator {
	if vg, ok := gen.(ValueBatchGenerator); ok && vg.HasValues() {
		return vg
	}
	return nil
}

// valueFunc attaches derived payload values to a key generator; see
// WithValues.
type valueFunc struct {
	Generator
	fn  func(key string, seq int64) int64
	seq int64
}

// WithValues wraps gen so each key carries the payload fn(key, seq),
// where seq is the message's position in the stream (0-based). It is
// the one way to derive a per-message sample: the engines draw through
// Source, which reads the wrapper's values as recorded data, and a
// wrapper over a recorded replay overrides the replay's values. Writing
// it through tracefile.Write produces a version-2 trace whose replay
// supplies the derived values as recorded data — the bridge from
// synthetic payload models to the record-once/replay-bit-identically
// workflow.
func WithValues(gen Generator, fn func(key string, seq int64) int64) ValueBatchGenerator {
	return &valueFunc{Generator: gen, fn: fn}
}

// NextBatch implements Generator (the values are derived but
// unreported; use NextBatchValues for lockstep consumption).
func (g *valueFunc) NextBatch(dst []string) int {
	n := g.Generator.NextBatch(dst)
	g.seq += int64(n)
	return n
}

// NextBatchValues implements ValueBatchGenerator.
func (g *valueFunc) NextBatchValues(keys []string, vals []int64) int {
	n := g.Generator.NextBatch(keys)
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

// Source is one run's draw over a generator, shared by every source
// goroutine of an engine. NewSource resets the generator and plans
// min(Len, limit) messages; Draw hands out consecutive slabs of that
// plan under one lock per slab, each with its base position in the
// global emission sequence, from which engines derive tumbling-window
// ids; Err reports a stream that ended short of the plan.
//
// Draw also resolves each message's payload sample, the value a
// windowed merger observes. The sampling contract: the generator's
// recorded values when Values(gen) is non-nil — a version-2 trace
// replay, or a WithValues wrapper, whose stream position equals the
// global emission sequence because NewSource resets the generator —
// else the constant 1, making every sum-like merge a count.
type Source struct {
	gen     Generator
	rec     ValueBatchGenerator // recorded values; nil when there are none
	planned int64

	mu    sync.Mutex
	drawn int64
}

// NewSource resets gen and plans one run of min(gen.Len(), limit)
// messages; limit ≤ 0 means gen.Len().
func NewSource(gen Generator, limit int64) *Source {
	gen.Reset()
	planned := gen.Len()
	if limit > 0 && limit < planned {
		planned = limit
	}
	return &Source{gen: gen, rec: Values(gen), planned: planned}
}

// Planned returns the number of messages the run draws when the stream
// is intact.
func (s *Source) Planned() int64 { return s.planned }

// Draw fills up to len(keys) keys — fewer once the plan is nearly
// drawn — and returns how many it drew and the global sequence number
// of keys[0]; n == 0 means the run's stream is drained. When vals is
// non-nil (len(vals) ≥ len(keys)) it is filled in lockstep by the
// sampling contract. Safe for concurrent use.
func (s *Source) Draw(keys []string, vals []int64) (n int, base int64) {
	s.mu.Lock()
	base = s.drawn
	if rem := s.planned - base; rem < int64(len(keys)) {
		keys = keys[:rem]
	}
	if len(keys) > 0 {
		if vals != nil && s.rec != nil {
			n = s.rec.NextBatchValues(keys, vals)
		} else {
			n = s.gen.NextBatch(keys)
		}
		s.drawn += int64(n)
	}
	s.mu.Unlock()
	if vals != nil && s.rec == nil {
		for i := range vals[:n] {
			vals[i] = 1
		}
	}
	return n, base
}

// Err returns CheckDrawn(drawn, planned): nil once the whole plan has
// been drawn, an error naming both counts when the stream ran dry.
func (s *Source) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CheckDrawn(s.drawn, s.planned)
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
		n := gen.NextBatch(buf)
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

// NextBatch implements Generator.
func (g *SliceGenerator) NextBatch(dst []string) int {
	n := copy(dst, g.keys[g.pos:])
	g.pos += n
	return n
}

// Len implements Generator.
func (g *SliceGenerator) Len() int64 { return int64(len(g.keys)) }

// Reset implements Generator.
func (g *SliceGenerator) Reset() { g.pos = 0 }

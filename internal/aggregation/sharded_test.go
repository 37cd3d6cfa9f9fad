package aggregation

import (
	"fmt"
	"math"
	"testing"

	"slb/internal/core"
	"slb/internal/hashing"
	"slb/internal/stream"
	"slb/internal/workload"
)

// TestMergerAlgebra pins the contract every Merger must satisfy:
// observing a sample stream split arbitrarily across two states and
// then Combining equals observing the whole stream into one state —
// the property that makes per-worker partials mergeable at all.
func TestMergerAlgebra(t *testing.T) {
	samples := []int64{5, -3, 5, 12, 0, 7, -3, 99, 12, 1, 5}
	for _, m := range []Merger{CountMerger, SumMerger, MinMerger, MaxMerger, DistinctMerger} {
		t.Run(m.Name(), func(t *testing.T) {
			for split := 0; split <= len(samples); split++ {
				var whole, left, right Value
				for i, s := range samples {
					m.Observe(&whole, s, 1)
					if i < split {
						m.Observe(&left, s, 1)
					} else {
						m.Observe(&right, s, 1)
					}
				}
				m.Combine(&left, right)
				if left != whole {
					t.Fatalf("split %d: combined state %v != whole-stream state %v", split, left, whole)
				}
			}
		})
	}
}

// TestMergerResults pins each built-in's semantics on a known stream,
// including the batched Observe form (n > 1).
func TestMergerResults(t *testing.T) {
	type obs struct{ sample, n int64 }
	stream := []obs{{4, 1}, {-2, 3}, {10, 1}, {4, 2}}
	want := map[string]int64{
		"count":    7,              // 1+3+1+2 observations
		"sum":      4 - 6 + 10 + 8, // sample×n summed
		"min":      -2,
		"max":      10,
		"distinct": 3, // {4, -2, 10}; small-range HLL is exact here
	}
	for _, m := range []Merger{CountMerger, SumMerger, MinMerger, MaxMerger, DistinctMerger} {
		var v Value
		for _, o := range stream {
			m.Observe(&v, o.sample, o.n)
		}
		if got := m.Result(v); got != want[m.Name()] {
			t.Errorf("%s: result %d, want %d", m.Name(), got, want[m.Name()])
		}
	}
}

// TestDistinctMergerEstimate: the 16-register HLL tracks true
// cardinality within its design error across a range of scales, and
// the estimate is independent of how observations are split across
// merged states.
func TestDistinctMergerEstimate(t *testing.T) {
	for _, card := range []int{1, 5, 16, 60, 250, 1000} {
		var one Value
		shards := make([]Value, 4)
		for i := 0; i < card; i++ {
			s := int64(i)*1000003 + 17
			DistinctMerger.Observe(&one, s, 1)
			DistinctMerger.Observe(&shards[i%4], s, 1)
		}
		var merged Value
		for _, sv := range shards {
			DistinctMerger.Combine(&merged, sv)
		}
		if DistinctMerger.Result(merged) != DistinctMerger.Result(one) {
			t.Errorf("card %d: merged estimate %d != single-state estimate %d",
				card, DistinctMerger.Result(merged), DistinctMerger.Result(one))
		}
		est := float64(DistinctMerger.Result(one))
		if rel := math.Abs(est-float64(card)) / float64(card); rel > 0.5 {
			t.Errorf("card %d: estimate %.0f off by %.0f%%", card, est, 100*rel)
		}
	}
}

// TestShardForPartition: every digest maps to exactly one in-range
// shard, deterministically, and the shards are all populated for a
// modest key set.
func TestShardForPartition(t *testing.T) {
	const shards = 8
	seen := make([]int, shards)
	for i := 0; i < 10_000; i++ {
		dg := hashing.Digest(fmt.Sprintf("key-%d", i))
		s := ShardFor(dg, shards)
		if s < 0 || s >= shards {
			t.Fatalf("shard %d out of range", s)
		}
		if s != ShardFor(dg, shards) {
			t.Fatal("ShardFor not deterministic")
		}
		seen[s]++
	}
	for s, c := range seen {
		if c == 0 {
			t.Errorf("shard %d received no keys", s)
		}
	}
	if ShardFor(hashing.Digest("x"), 1) != 0 || ShardFor(hashing.Digest("x"), 0) != 0 {
		t.Error("degenerate shard counts must map to shard 0")
	}
}

// runSharded routes gen through per-source partitioners, accumulates
// per-worker windowed partials, and reduces through a ShardedDriver
// with the given shard count, mirroring the engines' flow (emissions
// observed at routing, flush on watermark advance, per-shard
// completeness close). Returns the finals and the driver.
func runSharded(t *testing.T, gen stream.Generator, algo string, workers, sources, shards int, windowSize int64, m Merger, sample func(key string, seq int64) int64) ([]Final, *ShardedDriver) {
	t.Helper()
	parts := make([]core.Partitioner, sources)
	for i := range parts {
		p, err := core.New(algo, core.Config{Workers: workers, Seed: 99, Instance: i})
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	accs := make([]*Accumulator, workers)
	for i := range accs {
		accs[i] = NewAccumulatorMerger(i, m)
	}
	gen.Reset()
	total := gen.Len()

	sd := NewShardedDriver(workers, shards, windowSize, total, m)
	var finals []Final
	onFinal := func(f Final) { finals = append(finals, f) }
	var buf []Partial
	flush := func(acc *Accumulator, before int64) {
		buf = acc.FlushBefore(before, buf[:0])
		sd.Merge(buf, onFinal)
	}

	var idx int64
	src := 0
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		key := one[0]
		dg := hashing.Digest(key)
		window := idx / windowSize
		sd.ObserveEmit(idx, dg)
		w := parts[src].Route(key)
		acc := accs[w]
		if wm, ok := acc.Watermark(); ok && window > wm {
			flush(acc, window)
		}
		s := int64(1)
		if sample != nil {
			s = sample(key, idx)
		}
		acc.AddSample(window, dg, key, 1, s)
		idx++
		src = (src + 1) % sources
	}
	for _, acc := range accs {
		flush(acc, 1<<62)
	}
	sd.Finish(onFinal)
	return finals, sd
}

// TestShardedDriverMatchesSingle: for every shard count, the sharded
// reduce stage produces exactly the finals of the single reducer —
// same (window, key) set, same counts, same merged values — with the
// same measured replication factor and zero late corrections.
// Completeness-based close must survive sharding.
func TestShardedDriverMatchesSingle(t *testing.T) {
	const (
		workers    = 8
		sources    = 3
		messages   = 20_000
		windowSize = 1_500
	)
	sample := func(key string, seq int64) int64 { return int64(len(key)) + seq%13 }
	for _, m := range []Merger{CountMerger, SumMerger, MinMerger, MaxMerger, DistinctMerger} {
		mk := func() stream.Generator { return workload.NewZipf(1.6, 400, messages, 7) }
		refFinals, refDrv := runSharded(t, mk(), "W-C", workers, sources, 1, windowSize, m, sample)
		type fk struct {
			w int64
			k string
		}
		ref := make(map[fk]Final, len(refFinals))
		for _, f := range refFinals {
			ref[fk{f.Window, f.Key}] = f
		}
		for _, shards := range []int{2, 4, 7} {
			t.Run(fmt.Sprintf("%s/R=%d", m.Name(), shards), func(t *testing.T) {
				finals, sd := runSharded(t, mk(), "W-C", workers, sources, shards, windowSize, m, sample)
				if len(finals) != len(ref) {
					t.Fatalf("%d finals, want %d", len(finals), len(ref))
				}
				for _, f := range finals {
					want, ok := ref[fk{f.Window, f.Key}]
					if !ok {
						t.Fatalf("unexpected final (window %d, key %q)", f.Window, f.Key)
					}
					if f.Count != want.Count || f.Value != want.Value {
						t.Fatalf("(window %d, key %q): count/value %d/%d, want %d/%d",
							f.Window, f.Key, f.Count, f.Value, want.Count, want.Value)
					}
				}
				if got, want := sd.Replication(), refDrv.Replication(); got != want {
					t.Errorf("replication %v, want %v (bit-equal)", got, want)
				}
				st := sd.Stats()
				if st.Late != 0 {
					t.Errorf("%d late corrections; per-shard completeness close must make lates impossible", st.Late)
				}
				if st.Partials != refDrv.Stats().Partials {
					t.Errorf("partials %d, want %d", st.Partials, refDrv.Stats().Partials)
				}
				if sd.Total() != refDrv.Total() {
					t.Errorf("total %d, want %d", sd.Total(), refDrv.Total())
				}
			})
		}
	}
}

// TestShardedThresholdNotFinalBlocksClose pins the guard that makes
// sharded completeness close safe: a shard must NOT close a window
// whose emission is still being counted, even if the shard's merged
// count matches the (still-growing) threshold.
func TestShardedThresholdNotFinalBlocksClose(t *testing.T) {
	const windowSize = 4
	// Find two keys on different shards of 2.
	kA, kB := "", ""
	for i := 0; kB == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		if ShardFor(hashing.Digest(k), 2) == 0 {
			if kA == "" {
				kA = k
			}
		} else if kB == "" {
			kB = k
		}
	}
	dgA, dgB := hashing.Digest(kA), hashing.Digest(kB)

	sd := NewShardedDriver(1, 2, windowSize, 8, CountMerger)
	var finals []Final
	onFinal := func(f Final) { finals = append(finals, f) }

	// Emit half of window 0 (2 of 4 messages), all on shard A's key.
	sd.ObserveEmit(0, dgA)
	sd.ObserveEmit(1, dgA)
	// Shard A merges a partial covering BOTH messages counted so far:
	// merged count (2) equals the current threshold (2), but the
	// window's emission is incomplete — it must not close.
	sd.Merge([]Partial{{Window: 0, Digest: dgA, Key: kA, Count: 2, Val: Value{2}}}, onFinal)
	if len(finals) != 0 {
		t.Fatalf("shard closed window 0 after %d of %d emissions", 2, windowSize)
	}
	// Finish the window's emission on the other shard and merge it:
	// shard B's slice closes mid-stream (threshold 2, final, met).
	sd.ObserveEmit(2, dgB)
	sd.ObserveEmit(3, dgB)
	sd.Merge([]Partial{{Window: 0, Digest: dgB, Key: kB, Count: 2, Val: Value{2}}}, onFinal)
	if len(finals) != 1 || finals[0].Key != kB {
		t.Fatalf("shard B's slice did not close on completeness: finals %+v", finals)
	}
	// Shard A's slice became complete only via shard B's emissions; no
	// further merge prods it, so the end-of-stream Finish closes it.
	sd.Finish(onFinal)
	if len(finals) != 2 {
		t.Fatalf("got %d finals, want 2", len(finals))
	}
	for _, f := range finals {
		if f.Count != 2 {
			t.Errorf("final (%d, %q) count %d, want 2", f.Window, f.Key, f.Count)
		}
	}
	if st := sd.Stats(); st.Late != 0 {
		t.Errorf("lates %d, want 0", st.Late)
	}
}

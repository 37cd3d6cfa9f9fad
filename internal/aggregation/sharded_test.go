package aggregation

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
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
// per-worker windowed partials, and reduces through a Driver with the
// given shard count, mirroring the engines' flow (emissions observed at
// routing, flush on watermark advance, per-shard completeness close).
// Returns the finals and the driver.
func runSharded(t *testing.T, gen stream.Generator, algo string, workers, sources, shards int, windowSize int64, m Merger, sample func(key string, seq int64) int64) ([]Final, *Driver) {
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
	dig := make([]KeyDigest, 1)
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		key := one[0]
		dg := hashing.Digest(key)
		window := idx / windowSize
		dig[0] = dg
		sd.ObserveEmits(idx, dig)
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
	kA, kB := keysOnShards(2)
	dgA, dgB := hashing.Digest(kA), hashing.Digest(kB)

	sd := NewShardedDriver(1, 2, windowSize, 8, CountMerger)
	var finals []Final
	onFinal := func(f Final) { finals = append(finals, f) }

	// Emit half of window 0 (2 of 4 messages), all on shard A's key.
	sd.ObserveEmits(0, []KeyDigest{dgA, dgA})
	// Shard A merges a partial covering BOTH messages counted so far:
	// merged count (2) equals the current threshold (2), but the
	// window's emission is incomplete — it must not close.
	sd.Merge([]Partial{{Window: 0, Digest: dgA, Key: kA, Count: 2, Val: Value{2}}}, onFinal)
	if len(finals) != 0 {
		t.Fatalf("shard closed window 0 after %d of %d emissions", 2, windowSize)
	}
	// Finish the window's emission on the other shard and merge it:
	// shard B's slice closes mid-stream (threshold 2, final, met).
	sd.ObserveEmits(2, []KeyDigest{dgB, dgB})
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

// TestLateRecloseKeepsOtherShardsRow: a shard that closes its slice of
// a window again, after a late partial re-opened it, must not count as
// a second holder. The window's threshold row stays until the other
// holder closes its own slice, which it then does mid-stream.
func TestLateRecloseKeepsOtherShardsRow(t *testing.T) {
	kA, kB := keysOnShards(2)
	dgA, dgB := hashing.Digest(kA), hashing.Digest(kB)
	sd := NewShardedDriver(1, 2, 4, 8, CountMerger)
	var finals []Final
	onFinal := func(f Final) { finals = append(finals, f) }
	sd.ObserveEmits(0, []KeyDigest{dgA, dgA, dgB, dgB})
	pA := Partial{Window: 0, Digest: dgA, Key: kA, Count: 2, Val: Value{2}}
	sd.Merge([]Partial{pA}, onFinal)
	sd.Merge([]Partial{pA}, onFinal) // late: re-opens and re-closes shard A's slice
	if len(finals) != 2 || sd.Stats().Late != 1 {
		t.Fatalf("shard A: %d finals, %d late; want 2 and 1", len(finals), sd.Stats().Late)
	}
	sd.Merge([]Partial{{Window: 0, Digest: dgB, Key: kB, Count: 2, Val: Value{2}}}, onFinal)
	if len(finals) != 3 || finals[2].Key != kB {
		t.Fatalf("shard B's slice did not close on completeness: finals %+v", finals)
	}
	if n := len(sd.th.rows); n != 0 {
		t.Fatalf("%d threshold rows held after both holders closed", n)
	}
}

// keysOnShards returns a key on shard 0 and a key on shard 1 of n.
func keysOnShards(n int) (kA, kB string) {
	for i := 0; kA == "" || kB == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		switch ShardFor(hashing.Digest(k), n) {
		case 0:
			if kA == "" {
				kA = k
			}
		case 1:
			if kB == "" {
				kB = k
			}
		}
	}
	return kA, kB
}

// TestObserveEmitsAnnouncesEachWindowOnce: eight goroutines race
// ObserveEmits over disjoint slabs that span many windows, as the
// engine's spouts do. Each window is announced at most once, window 0
// never (the announcement starts there), the stream's last window
// always, and the counted per-shard shares add up to each window's
// size.
func TestObserveEmitsAnnouncesEachWindowOnce(t *testing.T) {
	const (
		goroutines = 8
		windowSize = 50
		messages   = 200_000
		slab       = 13
	)
	digs := make([]KeyDigest, messages)
	for i := range digs {
		digs[i] = hashing.Digest(fmt.Sprintf("key-%d", i%500))
	}
	last := int64(messages-1) / windowSize
	for _, shards := range []int{1, 3} {
		d := NewShardedDriver(4, shards, windowSize, messages, nil)
		var next atomic.Int64
		got := make([][]int64, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					base := next.Add(slab) - slab
					if base >= messages {
						return
					}
					end := min(base+slab, messages)
					w, ok := d.ObserveEmits(base, digs[base:end])
					if want := (end - 1) / windowSize; w != want {
						t.Errorf("slab [%d, %d): window %d, want %d", base, end, w, want)
					}
					if ok {
						got[g] = append(got[g], w)
					}
				}
			}()
		}
		wg.Wait()
		seen := map[int64]bool{}
		for _, ws := range got {
			for _, w := range ws {
				if seen[w] {
					t.Fatalf("shards=%d: window %d announced twice", shards, w)
				}
				seen[w] = true
			}
		}
		if seen[0] || !seen[last] {
			t.Fatalf("shards=%d: window 0 announced %v, last window %d announced %v", shards, seen[0], last, seen[last])
		}
		if shards == 1 {
			if d.th.rows != nil {
				t.Fatal("one shard counted thresholds")
			}
			continue
		}
		for w := int64(0); w <= last; w++ {
			want := make([]int64, shards)
			for i := w * windowSize; i < min((w+1)*windowSize, messages); i++ {
				want[ShardFor(digs[i], shards)]++
			}
			row := d.th.rows[w]
			if row[shards] != d.th.size(w) || !slices.Equal(row[:shards], want) {
				t.Fatalf("window %d: shares %v of %d, want %v of %d", w, row[:shards], row[shards], want, d.th.size(w))
			}
		}
	}
}

// TestZeroShareShardHoldsNoWindowState: with windows shorter than the
// shard count, most shards get no share of most windows. Such a shard
// never opens the window, and the stage keeps no record of it: a
// window's threshold row goes once the shards that held a share closed
// theirs, so the stage holds the windows in flight, not the stream.
func TestZeroShareShardHoldsNoWindowState(t *testing.T) {
	const (
		workers    = 8
		shards     = 8
		windowSize = 4
		messages   = 40_000
	)
	mk := func() stream.Generator { return workload.NewZipf(1.2, 1_000, messages, 13) }
	truth := groundTruth(mk(), windowSize)
	p, err := core.New("D-C", core.Config{Workers: workers, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	accs := make([]*Accumulator, workers)
	for i := range accs {
		accs[i] = NewAccumulator(i)
	}
	d := NewShardedDriver(workers, shards, windowSize, messages, nil)
	var finals []Final
	onFinal := func(f Final) { finals = append(finals, f) }
	var buf []Partial
	flush := func(before int64) {
		for _, acc := range accs {
			buf = acc.FlushBefore(before, buf[:0])
			d.Merge(buf, onFinal)
		}
	}
	gen := mk()
	dig := make([]KeyDigest, 1)
	held, open := 0, 0
	var idx int64
	for one := make([]string, 1); gen.NextBatch(one) == 1; idx++ {
		key := one[0]
		dg := hashing.Digest(key)
		dig[0] = dg
		// The tick: every worker holds its whole share of the windows
		// below an announced one.
		if cw, ok := d.ObserveEmits(idx, dig); ok {
			flush(cw)
		}
		accs[p.RouteDigest(dg, key)].Add(idx/windowSize, dg, key)
		held = max(held, len(d.th.rows))
		for _, s := range d.shards {
			open = max(open, len(s.pool.open))
		}
	}
	flush(1 << 62)
	d.Finish(onFinal)
	checkExact(t, finals, truth)
	if held > 2 || open > 2 {
		t.Errorf("%d threshold rows and %d windows on one shard held at once, want ≤ 2", held, open)
	}
	if c := d.th.closed; c.rest != nil || c.lo != c.hi {
		t.Errorf("sharded stage keeps a closed record: [%d, %d) + %d", c.lo, c.hi, len(c.rest))
	}
	if st := d.Stats(); st.Late != 0 {
		t.Errorf("%d late partials, want 0", st.Late)
	}
	for r, s := range d.shards {
		if n := len(s.pool.open); n != 0 {
			t.Errorf("shard %d: %d windows open after Finish", r, n)
		}
	}
}

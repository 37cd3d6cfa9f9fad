package aggregation

import (
	"fmt"
	"testing"

	"slb/internal/core"
	"slb/internal/hashing"
	"slb/internal/stream"
	"slb/internal/workload"
)

// runTwoPhase routes gen through per-source partitioners of the named
// algorithm, accumulates per-worker windowed partials (window =
// emission index / windowSize), flushes on watermark advance, merges at
// a one-shard driver and returns the finals plus the driver.
func runTwoPhase(t *testing.T, gen stream.Generator, algo string, workers, sources int, windowSize int64) ([]Final, *Driver) {
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
		accs[i] = NewAccumulator(i)
	}
	gen.Reset()
	d := NewDriver(workers, windowSize, gen.Len())
	var finals []Final
	onFinal := func(f Final) { finals = append(finals, f) }
	var buf []Partial
	mergeFlush := func(acc *Accumulator, w int64) {
		buf = acc.FlushBefore(w, buf[:0])
		d.Merge(buf, onFinal)
	}

	var idx int64
	src := 0
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		key := one[0]
		window := idx / windowSize
		w := parts[src].Route(key)
		acc := accs[w]
		if wm, ok := acc.Watermark(); ok && window > wm {
			// The worker sees a later window: flush everything below it.
			mergeFlush(acc, window)
		}
		acc.Add(window, hashing.Digest(key), key)
		idx++
		src = (src + 1) % sources
	}
	for _, acc := range accs {
		mergeFlush(acc, 1<<62)
	}
	d.Finish(onFinal)
	return finals, d
}

// groundTruth is the single-node KG reference: exact per-(window, key)
// counts of the stream.
func groundTruth(gen stream.Generator, windowSize int64) map[int64]map[string]int64 {
	gen.Reset()
	truth := make(map[int64]map[string]int64)
	var idx int64
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		key := one[0]
		w := idx / windowSize
		m := truth[w]
		if m == nil {
			m = make(map[string]int64)
			truth[w] = m
		}
		m[key]++
		idx++
	}
	gen.Reset()
	return truth
}

func checkExact(t *testing.T, finals []Final, truth map[int64]map[string]int64) {
	t.Helper()
	got := make(map[int64]map[string]int64)
	for _, f := range finals {
		m := got[f.Window]
		if m == nil {
			m = make(map[string]int64)
			got[f.Window] = m
		}
		if _, dup := m[f.Key]; dup {
			t.Fatalf("window %d key %q finalized twice", f.Window, f.Key)
		}
		m[f.Key] = f.Count
	}
	if len(got) != len(truth) {
		t.Fatalf("got %d windows, want %d", len(got), len(truth))
	}
	for w, wantKeys := range truth {
		gotKeys := got[w]
		if len(gotKeys) != len(wantKeys) {
			t.Fatalf("window %d: got %d keys, want %d", w, len(gotKeys), len(wantKeys))
		}
		for k, want := range wantKeys {
			if gotKeys[k] != want {
				t.Fatalf("window %d key %q: got %d, want %d", w, k, gotKeys[k], want)
			}
		}
	}
}

// TestWindowCloseExactness: for every algorithm, the sum of partials
// merged at the reducer equals the single-node KG count for every
// (window, key) — the aggregation is an amortization of state, never an
// approximation. Static Zipf and drifting workloads.
func TestWindowCloseExactness(t *testing.T) {
	const (
		workers    = 8
		sources    = 3
		messages   = 20_000
		windowSize = 1_500
	)
	gens := map[string]func() stream.Generator{
		"zipf":  func() stream.Generator { return workload.NewZipf(1.6, 400, messages, 7) },
		"drift": func() stream.Generator { return workload.NewDrift(1.6, 400, messages, 4_000, 37, 7) },
	}
	for genName, mk := range gens {
		truth := groundTruth(mk(), windowSize)
		for _, algo := range core.Names {
			t.Run(fmt.Sprintf("%s/%s", genName, algo), func(t *testing.T) {
				finals, d := runTwoPhase(t, mk(), algo, workers, sources, windowSize)
				checkExact(t, finals, truth)
				stats := d.Stats()
				if stats.Partials != stats.Merges+stats.Finals {
					t.Fatalf("stats inconsistent: %d partials, %d merges, %d finals",
						stats.Partials, stats.Merges, stats.Finals)
				}
			})
		}
	}
}

// TestReplicationOrdering: KG produces exactly one partial per (window,
// key) — replication factor 1, zero overhead — and the key-splitting
// schemes pay more, W-Choices the most of the load-aware ones. With
// in-order flushing every (window, key, worker) flushes once, so the
// partials per final equal the exact state replication.
func TestReplicationOrdering(t *testing.T) {
	const (
		workers    = 16
		sources    = 4
		messages   = 40_000
		windowSize = 4_000
	)
	mk := func() stream.Generator { return workload.NewZipf(2.0, 1_000, messages, 11) }
	rf := make(map[string]float64)
	for _, algo := range []string{"KG", "PKG", "W-C"} {
		_, d := runTwoPhase(t, mk(), algo, workers, sources, windowSize)
		stats := d.Stats()
		rf[algo] = float64(stats.Partials) / float64(stats.Finals)
		if got := d.Replication(); got != rf[algo] {
			t.Fatalf("%s: Replication %f, partials per final %f", algo, got, rf[algo])
		}
	}
	if rf["KG"] != 1 {
		t.Fatalf("KG replication factor = %f, want exactly 1", rf["KG"])
	}
	if !(rf["PKG"] > rf["KG"]) {
		t.Fatalf("PKG replication factor %f not above KG's %f", rf["PKG"], rf["KG"])
	}
	if !(rf["W-C"] > rf["PKG"]) {
		t.Fatalf("W-C replication factor %f not above PKG's %f", rf["W-C"], rf["PKG"])
	}
}

// TestLateTupleReopensWindow: a tuple arriving after its window was
// flushed opens a fresh partial; the reducer merges both flushes into
// one exact final. The windows are larger than the stream, so nothing
// closes before Finish.
func TestLateTupleReopensWindow(t *testing.T) {
	acc := NewAccumulator(0)
	d := NewDriver(1, 10, 0)
	dg := hashing.Digest("k")
	acc.Add(0, dg, "k")
	acc.Add(0, dg, "k")
	d.Merge(acc.FlushBefore(1, nil), nil) // window 0 closed at the worker
	acc.Add(0, dg, "k")                   // straggler for window 0
	acc.Add(1, dg, "k")
	d.Merge(acc.FlushAll(nil), nil)
	var finals []Final
	d.Finish(func(f Final) { finals = append(finals, f) })
	want := map[int64]int64{0: 3, 1: 1}
	if len(finals) != 2 {
		t.Fatalf("got %d finals, want 2", len(finals))
	}
	for _, f := range finals {
		if f.Count != want[f.Window] {
			t.Fatalf("window %d: count %d, want %d", f.Window, f.Count, want[f.Window])
		}
	}
	st := d.Stats()
	if st.Partials != 3 || st.Merges != 1 {
		t.Fatalf("stats = %+v, want 3 partials with 1 merge", st)
	}
}

// TestTableGrowthAndRecycle: a window with many distinct keys grows its
// table; after flushing, the table is recycled for the next window and
// steady-state cycles stop allocating new tables.
func TestTableGrowthAndRecycle(t *testing.T) {
	acc := NewAccumulator(0)
	for w := int64(0); w < 5; w++ {
		for i := 0; i < 1_000; i++ {
			key := fmt.Sprintf("k%d", i)
			acc.Add(w, hashing.Digest(key), key)
		}
		if acc.Entries() != 1_000 {
			t.Fatalf("window %d: %d entries, want 1000", w, acc.Entries())
		}
		ps := acc.FlushBefore(w+1, nil)
		if len(ps) != 1_000 {
			t.Fatalf("window %d: flushed %d partials, want 1000", w, len(ps))
		}
		if acc.OpenWindows() != 0 || acc.Entries() != 0 {
			t.Fatalf("window %d: not fully flushed", w)
		}
	}
	if acc.Flushed() != 5_000 {
		t.Fatalf("lifetime stats: flushed %d, want 5000", acc.Flushed())
	}
	if len(acc.pool.free) != 1 {
		t.Fatalf("free list holds %d tables, want 1 recycled", len(acc.pool.free))
	}
}

// TestReducerPeakEntries tracks the memory high-water mark across
// overlapping windows. The peak is sampled once the whole slab has
// merged and before any window it completed closes.
func TestReducerPeakEntries(t *testing.T) {
	d := NewDriver(1, 3, 0)
	entries := func() int64 { _, e, _ := d.Live(0); return e }
	dgA, dgB := hashing.Digest("a"), hashing.Digest("b")
	d.Merge([]Partial{
		{Window: 0, Digest: dgA, Key: "a", Count: 1},
		{Window: 0, Digest: dgB, Key: "b", Count: 1},
		{Window: 1, Digest: dgA, Key: "a", Count: 1},
	}, nil)
	if entries() != 3 || d.Stats().PeakEntries != 3 || d.Stats().PeakWindows != 2 {
		t.Fatalf("live %d, stats %+v", entries(), d.Stats())
	}
	// The third message of window 0 completes and closes it.
	d.Merge([]Partial{{Window: 0, Digest: dgB, Key: "b", Count: 1}}, nil)
	if entries() != 1 {
		t.Fatalf("live after close = %d, want 1", entries())
	}
	if d.Stats().PeakEntries != 3 {
		t.Fatalf("peak dropped: %d", d.Stats().PeakEntries)
	}
	// One slab raises the live entries to 4, then completes window 1,
	// which closes: the peak counts the whole slab.
	d.Merge([]Partial{
		{Window: 2, Digest: dgA, Key: "a", Count: 1},
		{Window: 2, Digest: dgB, Key: "b", Count: 1},
		{Window: 1, Digest: dgA, Key: "a", Count: 1},
		{Window: 1, Digest: dgB, Key: "b", Count: 1},
	}, nil)
	if entries() != 2 || d.Stats().PeakEntries != 4 {
		t.Fatalf("live %d, peak %d: want 2 live after a peak of 4", entries(), d.Stats().PeakEntries)
	}
}

// BenchmarkAccumulatorWindow measures one steady-state window cycle:
// accumulate a Zipf-keyed slab, flush, merge at the reducer, which
// closes the window on completeness.
func BenchmarkAccumulatorWindow(b *testing.B) {
	const windowSize = 4_096
	gen := workload.NewZipf(1.4, 2_000, int64(windowSize), 3)
	keys := make([]string, 0, windowSize)
	digs := make([]KeyDigest, 0, windowSize)
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		k := one[0]
		keys = append(keys, k)
		digs = append(digs, hashing.Digest(k))
	}
	acc := NewAccumulator(0)
	d := NewDriver(1, windowSize, 0)
	var buf []Partial
	var finals int64
	onFinal := func(Final) { finals++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := int64(i)
		for j := range keys {
			acc.Add(w, digs[j], keys[j])
		}
		buf = acc.FlushBefore(w+1, buf[:0])
		d.Merge(buf, onFinal)
	}
	b.StopTimer()
	if open, _, _ := d.Live(0); open != 0 || d.Total() != int64(b.N)*windowSize {
		b.Fatalf("%d windows open, total %d after %d cycles", open, d.Total(), b.N)
	}
}

// TestDriverReleasesClosedWindowReplicas pins the replica accounting's
// lifetime: finals carry the key digest, and each (window, key) replica
// bitset goes the moment its window closes, so the live set follows the
// open windows while the reported replication factor stays exact.
func TestDriverReleasesClosedWindowReplicas(t *testing.T) {
	const windowSize, messages = 100, 1000
	d := NewDriver(4, windowSize, messages)
	var finals int
	for w := int64(0); w < messages/windowSize; w++ {
		var ps []Partial
		for k := 0; k < 10; k++ {
			key := fmt.Sprintf("k%d", k)
			dg := hashing.Digest(key)
			// Two workers hold partials for every key: replication 2.
			ps = append(ps,
				Partial{Window: w, Digest: dg, Key: key, Count: 5, Worker: 0},
				Partial{Window: w, Digest: dg, Key: key, Count: 5, Worker: 1})
		}
		d.Merge(ps, func(f Final) {
			finals++
			if f.Digest != hashing.Digest(f.Key) {
				t.Fatalf("final %q carries digest %d, want %d", f.Key, f.Digest, hashing.Digest(f.Key))
			}
		})
		// Every window closes on completeness, so no entry — and with it
		// no replica bitset — stays live after its finals are emitted.
		if _, live, _ := d.Live(0); live != 0 {
			t.Fatalf("window %d: %d entries still live after close", w, live)
		}
	}
	if finals != 10*messages/windowSize {
		t.Fatalf("finals = %d, want %d", finals, 10*messages/windowSize)
	}
	if got := d.Replication(); got != 2 {
		t.Fatalf("Replication = %f, want 2 (exact despite releases)", got)
	}
	if d.Total() != messages {
		t.Fatalf("Total = %d, want %d", d.Total(), messages)
	}
}

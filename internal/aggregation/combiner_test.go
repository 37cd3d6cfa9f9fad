package aggregation

import (
	"fmt"
	"testing"

	"slb/internal/hashing"
)

// TestCombineTablePreMergeIsExact pins CombineTable now that only the
// benchmark's shadow span exercises it: folding the partials several
// workers hold for several windows keeps Σ count per (window, key),
// FlushBefore emits exactly one CombinedWorker partial per held
// (window, key) in ascending window order, In/Out/Len add up, and a
// Driver fed the flushed partials emits the finals it emits when fed the
// originals — while counting no replica, because merging erased the
// workers.
func TestCombineTablePreMergeIsExact(t *testing.T) {
	const (
		workers = 5
		windows = 4
		keys    = 7
		winSize = 1000 // larger than any window's total: the drivers close at Finish
	)
	for _, tc := range []struct {
		name   string
		m      Merger
		before int64 // FlushBefore bound of the first flush; FlushAll follows
	}{
		{"count/flush-all", nil, 1 << 62},
		{"count/two-flushes", nil, 2},
		{"sum/two-flushes", SumMerger, 3},
		{"max/flush-none-then-all", MaxMerger, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			if m == nil {
				m = CountMerger
			}
			type wk struct {
				w int64
				k int
			}
			// Worker x holds a partial for (window w, key k) when (w+k+x)
			// is even; some of them in two fragments.
			var originals []Partial
			counts := map[wk]int64{}
			for w := int64(0); w < windows; w++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("key-%d", k)
					for x := 0; x < workers; x++ {
						if (int(w)+k+x)%2 != 0 {
							continue
						}
						for f := 0; f <= x%2; f++ {
							n := int64(1 + k + x + f)
							var v Value
							m.Observe(&v, int64(10*k+x-f), n)
							originals = append(originals, Partial{
								Window: w, Digest: hashing.Digest(key), Key: key,
								Count: n, Val: v, Worker: int32(x),
							})
							counts[wk{w, k}] += n
						}
					}
				}
			}

			ct := NewCombineTable(tc.m)
			for i := range originals {
				ct.Fold(&originals[i])
			}
			if ct.In() != int64(len(originals)) || ct.Out() != 0 || held(&ct.pool) != len(counts) {
				t.Fatalf("after folding %d partials over %d (window, key): In %d, Out %d, Len %d",
					len(originals), len(counts), ct.In(), ct.Out(), held(&ct.pool))
			}
			first := ct.FlushBefore(tc.before, nil)
			for i := range first {
				if first[i].Window >= tc.before {
					t.Fatalf("FlushBefore(%d) emitted window %d", tc.before, first[i].Window)
				}
			}
			if ct.Out() != int64(len(first)) || held(&ct.pool) != len(counts)-len(first) {
				t.Fatalf("after the first flush of %d: Out %d, Len %d of %d", len(first), ct.Out(), held(&ct.pool), len(counts))
			}
			combined := ct.FlushAll(first)
			if ct.Out() != int64(len(combined)) || held(&ct.pool) != 0 || ct.In() != int64(len(originals)) {
				t.Fatalf("drained: In %d, Out %d (flushed %d), Len %d", ct.In(), ct.Out(), len(combined), held(&ct.pool))
			}

			// One combined partial per (window, key), ascending windows,
			// counts preserved.
			seen := map[wk]bool{}
			for i, p := range combined {
				if p.Worker != CombinedWorker {
					t.Fatalf("combined partial %d carries worker %d", i, p.Worker)
				}
				if i > 0 && p.Window < combined[i-1].Window {
					t.Fatalf("window %d flushed after window %d", p.Window, combined[i-1].Window)
				}
				var k int
				fmt.Sscanf(p.Key, "key-%d", &k)
				id := wk{p.Window, k}
				if seen[id] {
					t.Fatalf("(window %d, %s) flushed twice", p.Window, p.Key)
				}
				seen[id] = true
				if p.Count != counts[id] {
					t.Fatalf("(window %d, %s): count %d, originals sum to %d", p.Window, p.Key, p.Count, counts[id])
				}
			}
			if len(seen) != len(counts) {
				t.Fatalf("%d (window, key) flushed, %d folded", len(seen), len(counts))
			}

			// Same finals through a driver either way; replication only
			// from the originals.
			finalsOf := func(ps []Partial) (map[wk]Final, *Driver) {
				d := NewShardedDriver(workers, 1, winSize, 0, tc.m)
				got := map[wk]Final{}
				onFinal := func(f Final) {
					var k int
					fmt.Sscanf(f.Key, "key-%d", &k)
					got[wk{f.Window, k}] = f
				}
				d.Merge(ps, onFinal)
				d.Finish(onFinal)
				return got, d
			}
			want, raw := finalsOf(originals)
			got, pre := finalsOf(combined)
			if len(got) != len(want) || len(want) != len(counts) {
				t.Fatalf("%d finals from combined partials, %d from originals, %d (window, key)", len(got), len(want), len(counts))
			}
			for id, f := range want {
				if got[id] != f {
					t.Fatalf("(window %d, key %d): final %+v from combined partials, %+v from originals", id.w, id.k, got[id], f)
				}
			}
			if raw.Replication() <= 1 {
				t.Fatalf("originals replicate %v: the fixture spreads no key", raw.Replication())
			}
			if pairs, keys := pre.shards[0].pairs, pre.shards[0].keys; pairs != 0 || keys != 0 {
				t.Fatalf("combined partials set worker bits: %d pairs over %d keys", pairs, keys)
			}
		})
	}
}

// held returns the live (window, key) entries across a pool's open
// windows.
func held(p *tablePool) int {
	n := 0
	for _, t := range p.open {
		n += t.used
	}
	return n
}

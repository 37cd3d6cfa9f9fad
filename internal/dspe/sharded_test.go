package dspe

import (
	"sync"
	"testing"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/stream"
	"slb/internal/workload"
)

// TestShardedReducerRecoversThroughput is the wall-clock half of the
// R-sweep acceptance criterion: with a simulated per-partial merge
// cost making the reduce stage the bottleneck, sharding it 4 ways must
// recover a large fraction of the lost throughput (the deterministic
// half, including the exact util thresholds, lives in
// internal/eventsim's TestShardedReducerMovesSaturation).
func TestShardedReducerRecoversThroughput(t *testing.T) {
	const m = 20000
	run := func(r int) Result {
		gen := workload.NewZipf(1.4, 2000, m, 23)
		res, err := Run(gen, Config{
			Workers: 16, Sources: 4, Algorithm: "W-C",
			Core: core.Config{Seed: 7}, ServiceTime: 0,
			AggWindow: 500, AggShards: r,
			AggMergeCost: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	r4 := run(4)
	for _, res := range []Result{r1, r4} {
		if res.AggTotal != m {
			t.Fatalf("finals sum to %d, want %d", res.AggTotal, m)
		}
		if res.Agg.Late != 0 {
			t.Fatalf("late corrections %d, want 0 (per-shard completeness close)", res.Agg.Late)
		}
	}
	if r1.AggReducerUtil < 0.9 {
		t.Fatalf("R=1 reducer util %.3f, want ≥ 0.9 (the merge cost must make the reducer the bottleneck)", r1.AggReducerUtil)
	}
	// ~8.4k partials × 50 µs ≈ 420 ms of merge work: serialized at R=1,
	// quartered at R=4. The measured speedup is ≈ 3×; assert 1.7× to
	// stay robust on slow CI hosts.
	if r4.Throughput < 1.7*r1.Throughput {
		t.Errorf("R=4 throughput %.0f not ≥ 1.7× R=1's %.0f: sharding is not parallelizing the reduce stage",
			r4.Throughput, r1.Throughput)
	}
	if !(r4.AggReducerUtilMean < r1.AggReducerUtilMean) {
		t.Errorf("mean shard util did not drop: R=4 %.3f vs R=1 %.3f", r4.AggReducerUtilMean, r1.AggReducerUtilMean)
	}
	if r4.AggReducerUtilMean > r4.AggReducerUtil {
		t.Errorf("mean shard util %.3f above max %.3f", r4.AggReducerUtilMean, r4.AggReducerUtil)
	}
}

// TestShardedAggregationExact: sharding the reduce stage changes its
// topology, not its results — finals against a single-node ground
// truth, for several shard counts and a non-trivial merger, with
// OnFinal arriving pre-serialized across shard goroutines.
func TestShardedAggregationExact(t *testing.T) {
	const (
		m      = 12000
		window = 500
	)
	sample := func(key string, seq int64) int64 { return int64(len(key)) + seq%11 }
	type fk struct {
		w int64
		k string
	}
	// Single-node ground truth for count and sum.
	truthCount := map[fk]int64{}
	truthSum := map[fk]int64{}
	gen := workload.NewZipf(1.6, 300, m, 31)
	var idx int64
	for one := make([]string, 1); gen.NextBatch(one) == 1; {
		k := one[0]
		id := fk{idx / window, k}
		truthCount[id]++
		truthSum[id] += sample(k, idx)
		idx++
	}

	for _, shards := range []int{2, 4} {
		got := map[fk]aggregation.Final{}
		var mu sync.Mutex
		res, err := Run(stream.WithValues(workload.NewZipf(1.6, 300, m, 31), sample), Config{
			Workers: 8, Sources: 3, Algorithm: "D-C",
			Core: core.Config{Seed: 31}, ServiceTime: 0,
			AggWindow: window, AggShards: shards,
			AggMerger: aggregation.SumMerger,
			OnFinal: func(f aggregation.Final) {
				// OnFinal is serialized by the engine; the mutex only
				// pairs this goroutine's writes with the post-Run reads.
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[fk{f.Window, f.Key}]; dup {
					t.Errorf("(window %d, key %q) finalized twice", f.Window, f.Key)
				}
				got[fk{f.Window, f.Key}] = f
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.AggTotal != m {
			t.Fatalf("R=%d: finals sum to %d, want %d", shards, res.AggTotal, m)
		}
		if len(got) != len(truthCount) {
			t.Fatalf("R=%d: %d finals, want %d", shards, len(got), len(truthCount))
		}
		for id, want := range truthCount {
			f := got[id]
			if f.Count != want || f.Value != truthSum[id] {
				t.Fatalf("R=%d (window %d, key %q): count/value %d/%d, want %d/%d",
					shards, id.w, id.k, f.Count, f.Value, want, truthSum[id])
			}
		}
	}
}

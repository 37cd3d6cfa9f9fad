package eventsim

import (
	"testing"

	"slb/internal/aggregation"
	"slb/internal/stream"
)

// shardedCfg is the PR-3 saturating configuration (W-Choices, small
// windows, AggFlushCost = 2 ms) with a variable shard count.
func shardedCfg(algo string, shards int) Config {
	cfg := aggCfg(algo)
	cfg.AggShards = shards
	return cfg
}

// TestShardedReducerMovesSaturation pins the point of sharding the
// reduce stage: at the saturating config, R=1's single station runs at
// util ≈ 1 and costs throughput; R=4 pulls the maximum shard
// utilization below 0.9 and recovers at least half of the throughput
// the reducer station was costing (the loss vs the same aggregation
// with an unconstrained reduce stage — the worker-side AggFlushCost
// bill is paid identically at every R and is not the reducer's to
// recover).
func TestShardedReducerMovesSaturation(t *testing.T) {
	const m = 20000
	run := func(shards int, mergeCost float64) Result {
		cfg := shardedCfg("W-C", shards)
		cfg.AggMergeCost = mergeCost
		res, err := Run(zipfGen(2.0, 500, m), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1, 0)
	r4 := run(4, 0)
	// The reducer-unconstrained baseline: a merge cost low enough that
	// the station never binds (throughput plateaus below util ≈ 0.4),
	// isolating the loss attributable to reducer saturation. It cannot
	// be driven to ~0: the closed-form station queue is sized in TIME
	// (AggQueueLen × AggMergeCost), so a vanishing merge cost would
	// model a zero-capacity queue, not a free one.
	free := run(1, 0.1)

	if r1.ReducerUtil < 0.9 {
		t.Fatalf("R=1 shard util %.3f, want ≥ 0.9 (the saturating config must saturate)", r1.ReducerUtil)
	}
	if r4.ReducerUtil >= 0.9 {
		t.Errorf("R=4 max shard util %.3f, want < 0.9: sharding must move the saturation point", r4.ReducerUtil)
	}
	if !(r4.ReducerUtilMean <= r4.ReducerUtil) {
		t.Errorf("mean shard util %.3f above max %.3f", r4.ReducerUtilMean, r4.ReducerUtil)
	}
	lost := free.Throughput - r1.Throughput
	recovered := r4.Throughput - r1.Throughput
	if lost <= 0 {
		t.Fatalf("R=1 lost no throughput to the reducer (free %.0f vs R=1 %.0f); config no longer saturates", free.Throughput, r1.Throughput)
	}
	if recovered < 0.5*lost {
		t.Errorf("R=4 recovered %.0f of the %.0f events/s lost to reducer saturation (%.0f%%), want ≥ 50%%",
			recovered, lost, 100*recovered/lost)
	}

	// Sharding changes the reduce stage's topology, not its results:
	// finals conserve messages and the measured replication factor is
	// bit-equal across shard counts.
	for _, res := range []Result{r1, r4} {
		if res.AggTotal != res.Completed {
			t.Errorf("finals sum to %d, completed %d", res.AggTotal, res.Completed)
		}
		if res.Agg.Late != 0 {
			t.Errorf("late corrections %d, want 0 (per-shard completeness close)", res.Agg.Late)
		}
	}
	// (Replication across shard counts is bit-equal only at Sources=1 —
	// with several closed-loop sources, R changes backpressure timing,
	// which changes which source draws which key. The root-level
	// cross-engine parity test pins the Sources=1 equality.)

	// More shards never increase the per-shard peak backlog bound.
	if r4.ReducerPeakQueue > r1.ReducerPeakQueue {
		t.Errorf("R=4 peak shard backlog %d above R=1's %d", r4.ReducerPeakQueue, r1.ReducerPeakQueue)
	}
}

// TestShardedDeterminism: the sharded run is bit-reproducible, like
// everything else in this engine.
func TestShardedDeterminism(t *testing.T) {
	run := func() Result {
		res, err := Run(zipfGen(1.5, 300, 10000), shardedCfg("D-C", 4))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.Throughput != b.Throughput ||
		a.ReducerUtil != b.ReducerUtil || a.AggReplication != b.AggReplication {
		t.Fatalf("sharded simulation not deterministic: %+v vs %+v", a, b)
	}
}

// TestShardedMergerSemantics: a non-count merger rides the sharded
// reduce stage end to end — the merged Value follows the operator
// while Count keeps conserving messages.
func TestShardedMergerSemantics(t *testing.T) {
	const m = 10000
	sample := func(key string, seq int64) int64 { return seq % 7 }
	totals := map[string]int64{}
	cfg := shardedCfg("W-C", 4)
	cfg.AggMerger = aggregation.MaxMerger
	cfg.OnFinal = func(f aggregation.Final) {
		if f.Value > totals[f.Key] {
			totals[f.Key] = f.Value
		}
	}
	res, err := Run(stream.WithValues(zipfGen(1.8, 200, m), sample), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AggTotal != m {
		t.Fatalf("finals conserve %d of %d messages", res.AggTotal, m)
	}
	// The max over seq%7 for any key seen ≥ 7 times in one window is 6;
	// globally the hottest key certainly is.
	var best int64
	for _, v := range totals {
		if v > best {
			best = v
		}
	}
	if best != 6 {
		t.Errorf("max-merged ceiling %d, want 6", best)
	}
}

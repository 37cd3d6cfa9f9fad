// Digest-carry correctness: with aggregation enabled, each message's
// key bytes are digested exactly ONCE end to end (source → route →
// aggregate → reduce), in every engine — pinned by counting
// hashing.Digest calls over full runs — and the carried-digest plumbing
// changes no results: both engines produce identical finals and
// replication factors, equal to the single-node ground truth.
package slb_test

import (
	"sync/atomic"
	"testing"

	"slb"
	"slb/internal/hashing"
)

// countDigests runs fn with a hook counting every hashing.Digest call.
// fn must join all its goroutines before returning (every engine's Run
// does), so the final load is race-free.
func countDigests(fn func()) int64 {
	var n atomic.Int64
	hashing.SetDigestHook(func() { n.Add(1) })
	defer hashing.SetDigestHook(nil)
	fn()
	return n.Load()
}

// TestHashOnceEventsim: the discrete-event engine digests each key
// exactly once per message with aggregation on — including with the
// reduce stage sharded, whose per-shard routing and completeness
// thresholds run on the carried digest.
func TestHashOnceEventsim(t *testing.T) {
	const m = 10_000
	for _, shards := range []int{1, 4} {
		got := countDigests(func() {
			gen := slb.NewZipfStream(1.6, 300, m, 11)
			if _, err := slb.SimulateCluster(gen, slb.ClusterConfig{
				Workers: 8, Sources: 4, Algorithm: "D-C",
				Core: slb.Config{Seed: 11}, ServiceTime: 1.0, AggWindow: 500,
				AggShards: shards,
			}); err != nil {
				t.Fatal(err)
			}
		})
		if got != m {
			t.Fatalf("R=%d: eventsim digested %d times for %d messages, want exactly one per message", shards, got, m)
		}
	}
}

// TestHashOnceDspeRun: the goroutine engine digests each key exactly
// once per message with aggregation on — routing's digests flow into
// the bolts' partial tables, the shard split, and the reducers, with
// zero re-scans.
func TestHashOnceDspeRun(t *testing.T) {
	const m = 10_000
	for _, algo := range []string{"KG", "W-C", "SG"} {
		for _, shards := range []int{1, 4} {
			got := countDigests(func() {
				gen := slb.NewZipfStream(1.6, 300, m, 11)
				if _, err := slb.RunTopology(gen, slb.EngineConfig{
					Workers: 4, Sources: 2, Algorithm: algo,
					Core: slb.Config{Seed: 11}, AggWindow: 500,
					AggShards: shards,
				}); err != nil {
					t.Fatal(err)
				}
			})
			if got != m {
				t.Fatalf("%s R=%d: dspe digested %d times for %d messages, want exactly one per message", algo, shards, got, m)
			}
		}
	}
}

// TestHashOncePipeline: examples/trending's two-phase topology — D-C
// windowed partials over four spouts, a weighted Sum whose sample
// derives from the key, and a sharded reduce stage — re-keys every
// downstream edge via the carried digest: the only digests of the whole
// run happen at the spout.
func TestHashOncePipeline(t *testing.T) {
	const m = 8_000
	got := countDigests(func() {
		gen := slb.NewZipfStream(1.6, 300, m, 11)
		if _, err := slb.RunTopology(gen, slb.EngineConfig{
			Workers: 4, Sources: 4, Algorithm: "D-C",
			Core: slb.Config{Seed: 11}, AggWindow: 500, AggShards: 2,
			AggMerger: slb.SumMerger,
			AggValue:  func(key string, _ int64) int64 { return int64(len(key)%5) + 1 },
		}); err != nil {
			t.Fatal(err)
		}
	})
	if got != m {
		t.Fatalf("two-phase topology digested %d times for %d messages, want exactly one per message (spout only)", got, m)
	}
}

// TestCrossEngineAggregationParity: with a single source (so routing is
// deterministic and engine-independent), both engines must produce
// byte-identical finals — equal to the single-node ground truth — and
// the exact same measured replication factor. This pins that the
// digest-carry refactor changed plumbing, not results.
func TestCrossEngineAggregationParity(t *testing.T) {
	const (
		m      = 12_000
		window = 1_000
	)
	type key struct {
		w int64
		k string
	}
	collect := func() (map[key]int64, func(slb.AggFinal)) {
		got := make(map[key]int64)
		return got, func(f slb.AggFinal) { got[key{f.Window, f.Key}] += f.Count }
	}
	for _, algo := range []string{"KG", "PKG", "W-C"} {
		// Ground truth: single-node per-(window, key) counts.
		truth := make(map[key]int64)
		gen := slb.NewZipfStream(1.8, 400, m, 29)
		var idx int64
		for one := make([]string, 1); gen.NextBatch(one) == 1; {
			k := one[0]
			truth[key{idx / window, k}]++
			idx++
		}

		evtFinals, onEvt := collect()
		evt, err := slb.SimulateCluster(slb.NewZipfStream(1.8, 400, m, 29), slb.ClusterConfig{
			Workers: 8, Sources: 1, Algorithm: algo,
			Core: slb.Config{Seed: 29}, ServiceTime: 1.0,
			AggWindow: window, OnFinal: onEvt,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(evtFinals) != len(truth) {
			t.Fatalf("%s eventsim: %d finals, want %d", algo, len(evtFinals), len(truth))
		}
		for k, want := range truth {
			if evtFinals[k] != want {
				t.Fatalf("%s eventsim: window %d key %q = %d, want %d", algo, k.w, k.k, evtFinals[k], want)
			}
		}
		if evt.AggTotal != m {
			t.Errorf("%s eventsim: total %d, want %d", algo, evt.AggTotal, m)
		}

		liveFinals, onLive := collect()
		live, err := slb.RunTopology(slb.NewZipfStream(1.8, 400, m, 29), slb.EngineConfig{
			Workers: 8, Sources: 1, Algorithm: algo,
			Core: slb.Config{Seed: 29}, ServiceTime: 0,
			AggWindow: window, OnFinal: onLive,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(liveFinals) != len(truth) {
			t.Fatalf("%s dspe: %d finals, want %d", algo, len(liveFinals), len(truth))
		}
		for k, want := range truth {
			if liveFinals[k] != want {
				t.Fatalf("%s dspe: window %d key %q = %d, want %d", algo, k.w, k.k, liveFinals[k], want)
			}
		}
		if evt.AggReplication != live.AggReplication {
			t.Errorf("%s: replication factors diverge across engines: eventsim %v, dspe %v",
				algo, evt.AggReplication, live.AggReplication)
		}
		if live.AggTotal != m {
			t.Errorf("%s dspe: total %d, want %d", algo, live.AggTotal, m)
		}
	}
}

// TestCrossEngineShardedMergerParity extends the parity test across
// the sharded reduce stage and every built-in merge operator: with a
// single source (deterministic, engine-independent routing), both
// engines at every shard count must produce identical finals — counts
// AND merged values, equal to the single-node ground truth computed by
// driving the operator directly — and bit-equal replication factors.
// Sharding and pluggable merging change the reduce stage's topology,
// never its results.
func TestCrossEngineShardedMergerParity(t *testing.T) {
	const (
		m      = 8_000
		window = 800
	)
	sample := func(key string, seq int64) int64 { return int64(len(key)) + seq%13 }
	type fk struct {
		w int64
		k string
	}
	for _, b := range []struct {
		name   string
		merger slb.Merger
	}{
		{"count", slb.CountMerger}, {"sum", slb.SumMerger}, {"min", slb.MinMerger},
		{"max", slb.MaxMerger}, {"distinct", slb.DistinctMerger},
	} {
		merger := b.merger
		// Ground truth: fold every message's sample through the operator
		// per (window, key) on a single node.
		truthVal := make(map[fk]slb.MergeValue)
		truthCount := make(map[fk]int64)
		gen := slb.NewZipfStream(1.8, 400, m, 29)
		var idx int64
		for one := make([]string, 1); gen.NextBatch(one) == 1; {
			k := one[0]
			id := fk{idx / window, k}
			v := truthVal[id]
			merger.Observe(&v, sample(k, idx), 1)
			truthVal[id] = v
			truthCount[id]++
			idx++
		}

		for _, shards := range []int{1, 3} {
			collect := func() (map[fk]slb.AggFinal, func(slb.AggFinal)) {
				got := make(map[fk]slb.AggFinal)
				return got, func(f slb.AggFinal) {
					if _, dup := got[fk{f.Window, f.Key}]; dup {
						t.Errorf("%s R=%d: (window %d, key %q) finalized twice", b.name, shards, f.Window, f.Key)
					}
					got[fk{f.Window, f.Key}] = f
				}
			}
			evtFinals, onEvt := collect()
			evt, err := slb.SimulateCluster(slb.NewZipfStream(1.8, 400, m, 29), slb.ClusterConfig{
				Workers: 8, Sources: 1, Algorithm: "W-C",
				Core: slb.Config{Seed: 29}, ServiceTime: 1.0,
				AggWindow: window, AggShards: shards,
				AggMerger: merger, AggValue: sample, OnFinal: onEvt,
			})
			if err != nil {
				t.Fatal(err)
			}
			engines := map[string]map[fk]slb.AggFinal{"eventsim": evtFinals}
			liveFinals, onLive := collect()
			live, err := slb.RunTopology(slb.NewZipfStream(1.8, 400, m, 29), slb.EngineConfig{
				Workers: 8, Sources: 1, Algorithm: "W-C",
				Core: slb.Config{Seed: 29}, ServiceTime: 0,
				AggWindow: window, AggShards: shards,
				AggMerger: merger, AggValue: sample, OnFinal: onLive,
			})
			if err != nil {
				t.Fatal(err)
			}
			engines["dspe"] = liveFinals
			if evt.AggReplication != live.AggReplication {
				t.Errorf("%s R=%d: replication diverges across engines: eventsim %v, dspe %v",
					b.name, shards, evt.AggReplication, live.AggReplication)
			}
			if live.AggTotal != m {
				t.Errorf("%s R=%d dspe: total %d, want %d",
					b.name, shards, live.AggTotal, m)
			}
			if live.Agg.Late != 0 {
				t.Errorf("%s R=%d dspe: late corrections %d, want 0",
					b.name, shards, live.Agg.Late)
			}

			for engine, finals := range engines {
				if len(finals) != len(truthCount) {
					t.Fatalf("%s R=%d %s: %d finals, want %d", b.name, shards, engine, len(finals), len(truthCount))
				}
				for id, wantCount := range truthCount {
					f := finals[id]
					wantValue := merger.Result(truthVal[id])
					if f.Count != wantCount || f.Value != wantValue {
						t.Fatalf("%s R=%d %s: (window %d, key %q) count/value %d/%d, want %d/%d",
							b.name, shards, engine, id.w, id.k, f.Count, f.Value, wantCount, wantValue)
					}
				}
			}
			if evt.AggTotal != m {
				t.Errorf("%s R=%d: eventsim total %d, want %d", b.name, shards, evt.AggTotal, m)
			}
			if evt.Agg.Late != 0 {
				t.Errorf("%s R=%d: eventsim late corrections %d, want 0", b.name, shards, evt.Agg.Late)
			}
		}
	}
}

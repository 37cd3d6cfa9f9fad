// Benchmarks that regenerate every table and figure of the paper's
// evaluation at Quick scale — one testing.B benchmark per experiment —
// plus micro-benchmarks of the public routing API. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benches report ns/op for one full experiment run; the
// interesting scientific output (the tables themselves) comes from
// cmd/slbsim and cmd/slbstorm, and the headline quantities are attached
// here as custom benchmark metrics where that is meaningful.
package slb_test

import (
	"strconv"
	"testing"

	"slb"
	"slb/internal/experiments"
	"slb/internal/metrics"
	"slb/internal/spacesaving"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, name string) {
	e, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }

func BenchmarkAblateEps(b *testing.B)        { benchExperiment(b, "ablate-eps") }
func BenchmarkAblateSketch(b *testing.B)     { benchExperiment(b, "ablate-sketch") }
func BenchmarkAblatePrefix(b *testing.B)     { benchExperiment(b, "ablate-prefix") }
func BenchmarkAblateMerge(b *testing.B)      { benchExperiment(b, "ablate-merge") }
func BenchmarkAblateWindow(b *testing.B)     { benchExperiment(b, "ablate-window") }
func BenchmarkAblateOracle(b *testing.B)     { benchExperiment(b, "ablate-oracle") }
func BenchmarkAblateSaturation(b *testing.B) { benchExperiment(b, "ablate-saturation") }
func BenchmarkAblateStraggler(b *testing.B)  { benchExperiment(b, "ablate-straggler") }
func BenchmarkLiveFig13(b *testing.B)        { benchExperiment(b, "live-fig13") }

// BenchmarkRoute measures the per-message routing cost of each
// algorithm, one slab of one per message — the overhead a DSPE pays at
// the sender. Imbalance of the benchmark run is attached as a custom
// metric.
func BenchmarkRoute(b *testing.B) {
	for _, algo := range slb.Algorithms {
		for _, n := range []int{10, 100} {
			b.Run(algo+"/n="+strconv.Itoa(n), func(b *testing.B) {
				p, err := slb.New(algo, slb.Config{Workers: n, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				gen := slb.NewZipfStream(1.4, 10_000, int64(b.N)+1, 1)
				loads := make([]int64, n)
				one := make([]string, 1)
				dig := make([]slb.KeyDigest, 1)
				dst := make([]int, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					gen.NextBatch(one)
					slb.RouteBatchDigests(p, one, dig, dst)
					loads[dst[0]]++
				}
				b.ReportMetric(metrics.Imbalance(loads), "imbalance")
			})
		}
	}
}

// benchStream is the acceptance workload for the slab-of-one versus
// slab-of-512 comparison: 50 workers, z = 2.0 Zipf keys (p1 ≈ 0.61 —
// the regime the paper's head-aware algorithms exist for).
const (
	benchWorkers  = 50
	benchZ        = 2.0
	benchKeys     = 10_000
	benchSlabSize = 512
)

// BenchmarkRouteSteadyState is the per-message half of the comparison:
// one emit and one slab of one routed per operation, on warm
// partitioner state. Steady-state PKG and D-Choices routing must report
// 0 allocs/op (asserted hard by TestSteadyStateRoutingZeroAllocs).
func BenchmarkRouteSteadyState(b *testing.B) {
	for _, algo := range slb.Algorithms {
		b.Run(algo, func(b *testing.B) {
			p := newWarmBenchPartitioner(b, algo)
			gen := slb.NewZipfStream(benchZ, benchKeys, int64(b.N)+1, 1)
			one := make([]string, 1)
			dig := make([]slb.KeyDigest, 1)
			dst := make([]int, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen.NextBatch(one)
				slb.RouteBatchDigests(p, one, dig, dst)
			}
		})
	}
}

// BenchmarkRouteBatchSteadyState is the batched half: one NextBatch and
// one RouteBatchDigests per slab of 512 into a digest slab the caller
// owns, same stream, same warmup. Compare ns/op against
// BenchmarkRouteSteadyState — the ratio is the batch speedup: a slab
// pays the per-key work (sketch offer, candidate lookup, head test) once
// per run of identical keys, where a slab of one pays it for every
// message, a run of one.
func BenchmarkRouteBatchSteadyState(b *testing.B) { benchSteadySlabs(b, false) }

// BenchmarkRouteBatchDigestsSteadyState is the hash-once half of the
// digest-carry comparison: routing plus the digests every downstream
// layer needs, in one key scan — the same path as
// BenchmarkRouteBatchSteadyState, since routing is one call. Compare
// against BenchmarkRouteBatchRedigestSteadyState, which digests every
// key a second time: the gap is the second key-byte scan the carried
// digests keep off the aggregation hot path.
func BenchmarkRouteBatchDigestsSteadyState(b *testing.B) { benchSteadySlabs(b, false) }

// BenchmarkRouteBatchRedigestSteadyState reproduces the two-scan
// pattern carried digests replace: route the slab, then digest every
// key again (what the engines' aggregation path did before the digests
// were carried).
func BenchmarkRouteBatchRedigestSteadyState(b *testing.B) { benchSteadySlabs(b, true) }

// benchSteadySlabs routes the bench stream in slabs of benchSlabSize
// through a warm partitioner of every algorithm, digesting each slab's
// keys a second time when redigest is set.
func benchSteadySlabs(b *testing.B, redigest bool) {
	for _, algo := range slb.Algorithms {
		b.Run(algo, func(b *testing.B) {
			p := newWarmBenchPartitioner(b, algo)
			gen := slb.NewZipfStream(benchZ, benchKeys, int64(b.N)+benchSlabSize, 1)
			keys := make([]string, benchSlabSize)
			digs := make([]slb.KeyDigest, benchSlabSize)
			dst := make([]int, benchSlabSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += benchSlabSize {
				n := slb.NextBatch(gen, keys)
				if n == 0 {
					b.Fatal("stream exhausted")
				}
				slb.RouteBatchDigests(p, keys[:n], digs, dst)
				if redigest {
					for j, k := range keys[:n] {
						digs[j] = slb.DigestKey(k)
					}
				}
			}
		})
	}
}

// BenchmarkShardedReduce runs the discrete-event cluster at the
// reducer-saturating aggregation config (W-Choices, AggFlushCost =
// 2 ms, small windows) with the reduce stage unsharded vs sharded
// 4 ways: one full deterministic run per iteration, with the modeled
// throughput and the busiest shard's utilization attached as custom
// metrics. R=1 pins the saturated regime (util ≈ 1); R=4 shows the
// saturation point moved and the reducer-bound throughput recovered.
func BenchmarkShardedReduce(b *testing.B) {
	const m = 20_000
	for _, shards := range []int{1, 4} {
		b.Run("R="+strconv.Itoa(shards), func(b *testing.B) {
			var last slb.ClusterResult
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gen := slb.NewZipfStream(2.0, 500, m, 23)
				res, err := slb.SimulateCluster(gen, slb.ClusterConfig{
					Workers: 16, Sources: 8, Algorithm: "W-C",
					Core: slb.Config{Seed: 7}, ServiceTime: 1.0,
					Window: 50, Messages: m,
					AggWindow: 100, AggFlushCost: 2.0, AggShards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.AggTotal != m {
					b.Fatalf("finals sum to %d, want %d", res.AggTotal, m)
				}
				last = res
			}
			b.ReportMetric(last.Throughput, "modeled-events/s")
			b.ReportMetric(last.ReducerUtil, "max-shard-util")
		})
	}
}

// BenchmarkRouteAtScale measures the head-aware schemes' routing cost
// across deployment sizes on the head-dominated workload (z = 2.0, ≈80%
// of messages in the head) that maximizes argmin pressure. The
// acceptance shape: W-C ns/op stays roughly flat from n=64 to n=16384
// (the O(1) floor index behind its head path). Theta is pinned in that
// sweep so the sketch (and the head set) is identical at every n — it
// varies ONLY the argmin cost, over a head of dozens of keys.
//
// The D-C/default cells are the two regimes that sweep never reaches,
// in the default configuration (θ = 1/(5n)) over 100k keys: z = 0.8,
// where the head is thousands of keys (|H| ≈ 2.8k, d ≈ 91 at
// n = 4096) and the cost is FINDOPTIMALCHOICES and the candidate cache,
// and z = 2.0, where d is in the thousands (≈ 2.5k at n = 4096) and the
// cost is the argmin over ≈ 1.9k candidates per head message — the
// level cursors' regime.
func BenchmarkRouteAtScale(b *testing.B) {
	for _, algo := range []string{"W-C", "D-C"} {
		for _, n := range []int{64, 256, 1024, 4096, 16384} {
			b.Run(algo+"/n="+strconv.Itoa(n), func(b *testing.B) {
				cfg := slb.Config{Workers: n, Seed: 1, Theta: 1.0 / (5 * 2048)}
				benchRouteAtScale(b, algo, cfg, benchZ, benchKeys, 50_000)
			})
		}
	}
	for _, n := range []int{4096, 16384} {
		for _, z := range []float64{0.8, 2.0} {
			b.Run("D-C/default/n="+strconv.Itoa(n)+"/z="+strconv.FormatFloat(z, 'f', 1, 64), func(b *testing.B) {
				benchRouteAtScale(b, "D-C", slb.Config{Workers: n, Seed: 1}, z, 100_000, 256<<10)
			})
		}
	}
}

// benchRouteAtScale warms a partitioner on `warm` messages of a
// Zipf(z) stream over `keys` keys, then times RouteBatchDigests slabs.
func benchRouteAtScale(b *testing.B, algo string, cfg slb.Config, z float64, keys int, warm int64) {
	p, err := slb.New(algo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	wgen := slb.NewZipfStream(z, keys, warm, 2)
	slab := make([]string, benchSlabSize)
	digs := make([]slb.KeyDigest, benchSlabSize)
	dst := make([]int, benchSlabSize)
	for {
		k := slb.NextBatch(wgen, slab)
		if k == 0 {
			break
		}
		slb.RouteBatchDigests(p, slab[:k], digs, dst)
	}
	gen := slb.NewZipfStream(z, keys, int64(b.N)+benchSlabSize, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchSlabSize {
		k := slb.NextBatch(gen, slab)
		if k == 0 {
			b.Fatal("stream exhausted")
		}
		slb.RouteBatchDigests(p, slab[:k], digs, dst)
	}
}

// BenchmarkSimulateThroughput measures end-to-end simulator throughput
// (messages routed per second) for the paper's algorithms at n = 50.
func BenchmarkSimulateThroughput(b *testing.B) {
	for _, algo := range []string{"PKG", "D-C", "W-C"} {
		b.Run(algo, func(b *testing.B) {
			gen := slb.NewZipfStream(1.6, 10_000, 50_000, 7)
			cfg := slb.Config{Workers: 50, Seed: 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := slb.Simulate(gen, algo, cfg, slb.SimOptions{Sources: 5}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(50_000*b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// TestSteadyStateRoutingZeroAllocs asserts the allocation contract the
// benchmarks report: warm steady-state routing — at a slab of one and at
// a slab of 512 — performs zero allocations for PKG and D-Choices (and
// the other head-aware schemes), in the default configuration:
// D-Choices re-solves d every 1024 messages inside the measured windows.
func TestSteadyStateRoutingZeroAllocs(t *testing.T) {
	gen := slb.NewZipfStream(benchZ, benchKeys, 60_000, 7)
	keys := make([]string, 0, 60_000)
	buf := make([]string, benchSlabSize)
	for {
		n := slb.NextBatch(gen, buf)
		if n == 0 {
			break
		}
		keys = append(keys, buf[:n]...)
	}
	// zeroAllocs warms p on keys, then measures a slab of one and a slab
	// of benchSlabSize.
	zeroAllocs := func(label string, p slb.Partitioner) {
		digs := make([]slb.KeyDigest, benchSlabSize)
		dst := make([]int, benchSlabSize)
		for i := 0; i < len(keys); i += benchSlabSize {
			// warmup: sketch at capacity, pools primed
			slb.RouteBatchDigests(p, keys[i:min(i+benchSlabSize, len(keys))], digs, dst)
		}
		i := 0
		if avg := testing.AllocsPerRun(5000, func() {
			k := i % len(keys)
			slb.RouteBatchDigests(p, keys[k:k+1], digs, dst)
			i++
		}); avg != 0 {
			t.Errorf("%s: steady-state routing of a slab of one allocates %.4f allocs/op, want 0", label, avg)
		}
		j := 0
		if avg := testing.AllocsPerRun(100, func() {
			if j+benchSlabSize > len(keys) {
				j = 0
			}
			slb.RouteBatchDigests(p, keys[j:j+benchSlabSize], digs, dst)
			j += benchSlabSize
		}); avg != 0 {
			t.Errorf("%s: steady-state RouteBatchDigests allocates %.4f allocs/slab, want 0", label, avg)
		}
	}
	for _, algo := range []string{"PKG", "D-C", "W-C", "RR"} {
		p, err := slb.New(algo, slb.Config{Workers: benchWorkers, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		zeroAllocs(algo, p)
	}
	// A large deployment upholds the same contract: warm steady-state
	// routing through the floor index and the prefix-window candidate
	// cache allocates nothing, at both slab sizes.
	for _, algo := range []string{"D-C", "W-C"} {
		p, err := slb.New(algo, slb.Config{Workers: 1024, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		zeroAllocs(algo+"/n=1024", p)
	}
}

// BenchmarkHeavyHitters measures the sketch update path in isolation.
func BenchmarkHeavyHitters(b *testing.B) {
	hh := spacesaving.New(1000)
	gen := slb.NewZipfStream(1.2, 100_000, int64(b.N)+1, 3)
	one := make([]string, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.NextBatch(one)
		hh.OfferDigest(slb.DigestKey(one[0]), one[0])
	}
}

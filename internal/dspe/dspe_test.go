package dspe

import (
	"testing"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/stream"
	"slb/internal/telemetry"
	"slb/internal/workload"
)

func zipfGen(z float64, keys int, m int64) stream.Generator {
	return workload.NewZipf(z, keys, m, 31)
}

func baseCfg(algo string, n, s int) Config {
	return Config{
		Workers:     n,
		Sources:     s,
		Algorithm:   algo,
		Core:        core.Config{Seed: 5},
		ServiceTime: 200 * time.Microsecond,
		Window:      32,
	}
}

func TestRunProcessesEverything(t *testing.T) {
	res, err := Run(zipfGen(1.0, 200, 3000), baseCfg("SG", 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3000 {
		t.Fatalf("completed %d, want 3000", res.Completed)
	}
	var sum int64
	for _, l := range res.Loads {
		sum += l
	}
	if sum != 3000 {
		t.Fatalf("loads sum %d", sum)
	}
	if res.Throughput <= 0 || res.Elapsed <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(zipfGen(1, 10, 10), Config{Workers: 0, Sources: 1, Algorithm: "SG"}); err == nil {
		t.Fatal("expected error for Workers=0")
	}
	if _, err := Run(zipfGen(1, 10, 10), baseCfg("BOGUS", 2, 1)); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestLatencyAtLeastServiceTime(t *testing.T) {
	res, err := Run(zipfGen(1.0, 100, 1000), baseCfg("SG", 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.P50 < 200*time.Microsecond {
		t.Fatalf("p50 %v below the service time", res.P50)
	}
	if res.MaxAvgLatency < 200*time.Microsecond {
		t.Fatalf("max-avg %v below the service time", res.MaxAvgLatency)
	}
}

// TestEmptyRunLatencyIsZero: a run that samples no tuple reports 0 for
// every latency column on both backends, not a value converted from an
// empty estimator.
func TestEmptyRunLatencyIsZero(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			res, err := Run(stream.FromSlice(nil), Config{Workers: 4, Sources: 1, Algorithm: "PKG", Transport: b.sel})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != 0 || res.P50 != 0 || res.P95 != 0 || res.P99 != 0 || res.MaxAvgLatency != 0 {
				t.Fatalf("completed %d, p50/p95/p99/max-avg = %v/%v/%v/%v, want all 0",
					res.Completed, res.P50, res.P95, res.P99, res.MaxAvgLatency)
			}
		})
	}
}

func TestMessagesCap(t *testing.T) {
	cfg := baseCfg("SG", 2, 2)
	cfg.Messages = 500
	res, err := Run(zipfGen(1.0, 100, 100000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 500 {
		t.Fatalf("completed %d, want 500", res.Completed)
	}
}

func TestSkewHurtsKGThroughput(t *testing.T) {
	// Wall-clock flakiness tolerated: require only a clear (2×) gap.
	if testing.Short() {
		t.Skip("wall-clock test skipped in -short")
	}
	kg, err := Run(zipfGen(2.0, 500, 4000), baseCfg("KG", 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Run(zipfGen(2.0, 500, 4000), baseCfg("SG", 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if kg.Throughput > sg.Throughput/2 {
		t.Fatalf("KG throughput %f should be well below SG %f under z=2 skew",
			kg.Throughput, sg.Throughput)
	}
	if kg.Imbalance < 10*sg.Imbalance {
		t.Fatalf("KG imbalance %f should dwarf SG %f", kg.Imbalance, sg.Imbalance)
	}
}

func TestWChoicesBalancedOnSkewedStream(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test skipped in -short")
	}
	res, err := Run(zipfGen(2.0, 500, 4000), baseCfg("W-C", 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance > 0.05 {
		t.Fatalf("W-C imbalance %f on the engine, want < 0.05", res.Imbalance)
	}
}

func TestZeroServiceTime(t *testing.T) {
	cfg := baseCfg("PKG", 4, 2)
	cfg.ServiceTime = 0
	res, err := Run(zipfGen(1.0, 100, 2000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2000 {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestSpinModeWorks(t *testing.T) {
	cfg := baseCfg("SG", 2, 1)
	cfg.ServiceTime = 20 * time.Microsecond
	cfg.Spin = true
	cfg.Messages = 200
	res, err := Run(zipfGen(1.0, 50, 100000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 200 {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestDeterministicRoutingAcrossRuns(t *testing.T) {
	// Wall-clock metrics vary, but the routing (loads) must be identical
	// for single-source runs with a fixed seed.
	cfg := baseCfg("PKG", 4, 1)
	cfg.ServiceTime = 0
	a, _ := Run(zipfGen(1.2, 100, 2000), cfg)
	b, _ := Run(zipfGen(1.2, 100, 2000), cfg)
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			t.Fatalf("loads differ at worker %d: %d vs %d", i, a.Loads[i], b.Loads[i])
		}
	}
}

// TestPooledTailLatencyRegression pins the pooled-percentile fix with a
// deterministic skewed fixture: one hot bolt that processed 100× the
// tuples of its peers and has a 4% tail at 100ms (so its own p95 is 1ms
// but its p99 is 100ms). The old pooling re-sampled each bolt's
// 0.05–0.95 quantile grid with equal weight, so the pooled "P99" (a)
// could never exceed any single bolt's p95 and (b) weighted the idle
// bolts as heavily as the hot one — it reports ≈1ms here. Adding the
// bolts' histograms must report the true ≈100ms tail.
func TestPooledTailLatencyRegression(t *testing.T) {
	ms := float64(time.Millisecond)
	stats := make([]boltStats, 10)
	// Hot bolt: 10k tuples, 96% at 1ms, 4% at 100ms.
	stats[0].lat = telemetry.NewHistogram()
	for i := 0; i < 10_000; i++ {
		v := 1 * ms
		if i%25 == 0 { // 4%
			v = 100 * ms
		}
		stats[0].lat.Observe(v)
		stats[0].count++
	}
	// Nine near-idle bolts: 100 tuples each at 1ms.
	for w := 1; w < 10; w++ {
		stats[w].lat = telemetry.NewHistogram()
		for i := 0; i < 100; i++ {
			stats[w].lat.Observe(1 * ms)
			stats[w].count++
		}
	}

	// The old grid pooling, reproduced on the new type: it must fail to
	// see the tail (this is the regression being pinned — if this starts
	// seeing 100ms the fixture no longer discriminates).
	oldPooled := telemetry.NewHistogram()
	for w := range stats {
		if stats[w].count > 0 {
			for _, q := range []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95} {
				oldPooled.Observe(stats[w].lat.Quantile(q))
			}
		}
	}
	if old := oldPooled.Quantile(0.99); old > 2*ms {
		t.Fatalf("fixture no longer discriminates: old grid pooling reports p99 = %v", time.Duration(old))
	}

	got := time.Duration(poolLatency(stats).Quantile(0.99))
	if got < 50*time.Millisecond {
		t.Fatalf("pooled p99 = %v, want ≈100ms (hot bolt's tail must dominate)", got)
	}
	// p50 is still 1ms: the tail is 4% of the hot bolt, not the median.
	if p50 := time.Duration(poolLatency(stats).Quantile(0.50)); p50 > 2*time.Millisecond {
		t.Fatalf("pooled p50 = %v, want ≈1ms", p50)
	}
}

// aggGroundTruth computes the single-node reference: per-(window, key)
// counts with window = global emission index / windowSize. The global
// key sequence is deterministic (spouts draw from one shared generator
// under a mutex), so this is exactly what the engine must reproduce.
func aggGroundTruth(gen stream.Generator, windowSize int64) map[int64]map[string]int64 {
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

// TestRunAggregationExact drives the full two-phase topology for every
// algorithm and checks window-close exactness against the single-node
// reference: every processed tuple is counted exactly once (late
// partials are emitted as corrections and summed here, as a downstream
// consumer of a correcting stream would).
func TestRunAggregationExact(t *testing.T) {
	const (
		m          = 12_000
		windowSize = 1_000
	)
	for _, algo := range []string{"KG", "PKG", "D-C", "W-C", "SG"} {
		t.Run(algo, func(t *testing.T) {
			gen := zipfGen(1.6, 300, m)
			truth := aggGroundTruth(gen, windowSize)
			got := make(map[int64]map[string]int64)
			cfg := baseCfg(algo, 4, 2)
			cfg.ServiceTime = 0
			cfg.AggWindow = windowSize
			cfg.OnFinal = func(f aggregation.Final) {
				mm := got[f.Window]
				if mm == nil {
					mm = make(map[string]int64)
					got[f.Window] = mm
				}
				mm[f.Key] += f.Count
			}
			res, err := Run(gen, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != m {
				t.Fatalf("completed %d of %d", res.Completed, m)
			}
			if res.AggTotal != res.Completed {
				t.Fatalf("final counts sum to %d, completed %d", res.AggTotal, res.Completed)
			}
			if len(got) != len(truth) {
				t.Fatalf("got %d windows, want %d", len(got), len(truth))
			}
			for w, wantKeys := range truth {
				for k, want := range wantKeys {
					if got[w][k] != want {
						t.Fatalf("window %d key %q: got %d, want %d", w, k, got[w][k], want)
					}
				}
				if len(got[w]) != len(wantKeys) {
					t.Fatalf("window %d: got %d keys, want %d", w, len(got[w]), len(wantKeys))
				}
			}
			st := res.Agg
			if st.Partials == 0 || st.Finals == 0 || st.WindowsClosed < m/windowSize {
				t.Fatalf("implausible agg stats: %+v", st)
			}
			// Completeness-based close: no window closes before its last
			// partial, so corrections never happen and each window closes
			// exactly once.
			if st.Late != 0 || st.WindowsClosed != (m+windowSize-1)/windowSize {
				t.Fatalf("late/re-closed windows: %+v", st)
			}
		})
	}
}

// TestRunAggregationReplication: through the live engine, KG's measured
// replication factor is exactly 1 (every key's window state lives on one
// bolt) and W-C pays more than PKG.
func TestRunAggregationReplication(t *testing.T) {
	const m = 30_000
	rf := make(map[string]float64)
	for _, algo := range []string{"KG", "PKG", "W-C"} {
		gen := zipfGen(2.0, 500, m)
		cfg := baseCfg(algo, 8, 3)
		cfg.ServiceTime = 0
		cfg.AggWindow = 3_000
		res, err := Run(gen, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rf[algo] = res.AggReplication
	}
	if rf["KG"] != 1 {
		t.Fatalf("KG replication factor = %f, want exactly 1", rf["KG"])
	}
	if !(rf["W-C"] > rf["PKG"] && rf["PKG"] > 1) {
		t.Fatalf("replication ordering violated: PKG %f, W-C %f", rf["PKG"], rf["W-C"])
	}
}

package eventsim

import (
	"math"
	"testing"

	"slb/internal/core"
	"slb/internal/stream"
	"slb/internal/workload"
)

func zipfGen(z float64, keys int, m int64) stream.Generator {
	return workload.NewZipf(z, keys, m, 23)
}

func baseCfg(algo string, n, s int) Config {
	return Config{
		Workers:     n,
		Sources:     s,
		Algorithm:   algo,
		Core:        core.Config{Seed: 7},
		ServiceTime: 1.0, // 1 ms, as in the paper
		Window:      50,
		Messages:    20000,
	}
}

func TestRunCompletesAllMessages(t *testing.T) {
	res, err := Run(zipfGen(1.0, 500, 20000), baseCfg("SG", 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 20000 {
		t.Fatalf("completed %d, want 20000", res.Completed)
	}
	var sum int64
	for _, l := range res.Loads {
		sum += l
	}
	if sum != res.Completed {
		t.Fatalf("loads sum %d != completed %d", sum, res.Completed)
	}
	if res.Duration <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(zipfGen(1, 10, 10), Config{Workers: 0, Sources: 1, Algorithm: "SG", ServiceTime: 1}); err == nil {
		t.Fatal("expected error for Workers=0")
	}
	if _, err := Run(zipfGen(1, 10, 10), Config{Workers: 1, Sources: 1, Algorithm: "SG"}); err == nil {
		t.Fatal("expected error for ServiceTime=0")
	}
	if _, err := Run(zipfGen(1, 10, 10), baseCfg("BOGUS", 2, 1)); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Run(zipfGen(1.5, 300, 10000), baseCfg("PKG", 10, 5))
	b, _ := Run(zipfGen(1.5, 300, 10000), baseCfg("PKG", 10, 5))
	if a.Duration != b.Duration || a.P99 != b.P99 || a.Throughput != b.Throughput {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestSaturatedBalancedThroughputNearCapacity(t *testing.T) {
	// Balanced SG with saturating sources: throughput ≈ n / serviceTime.
	cfg := baseCfg("SG", 8, 8)
	res, _ := Run(zipfGen(0.5, 500, 20000), cfg)
	capacity := float64(cfg.Workers) / cfg.ServiceTime * 1000 // msg/s
	if res.Throughput < 0.8*capacity {
		t.Fatalf("SG throughput %f below 80%% of capacity %f", res.Throughput, capacity)
	}
}

func TestKGThroughputCollapsesUnderSkew(t *testing.T) {
	// z=2.0: p1 ≈ 0.6 of messages hit one worker under KG; the system
	// cannot run faster than ≈ (1/p1) per service time.
	kg, _ := Run(zipfGen(2.0, 1000, 20000), baseCfg("KG", 8, 4))
	sg, _ := Run(zipfGen(2.0, 1000, 20000), baseCfg("SG", 8, 4))
	if kg.Throughput > 0.45*sg.Throughput {
		t.Fatalf("KG %f should be far below SG %f under extreme skew", kg.Throughput, sg.Throughput)
	}
}

func TestFig13OrderingAtHighSkew(t *testing.T) {
	// Paper Fig 13 (z=2.0): KG < PKG < D-C ≈ W-C ≈ SG.
	gen := func() stream.Generator { return zipfGen(2.0, 1000, 30000) }
	n, s := 16, 8
	results := map[string]float64{}
	for _, algo := range []string{"KG", "PKG", "D-C", "W-C", "SG"} {
		cfg := baseCfg(algo, n, s)
		cfg.Messages = 30000
		cfg.MeasureAfter = 8000 // steady state, past the sketch warmup
		r, err := Run(gen(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[algo] = r.Throughput
	}
	if !(results["KG"] < results["PKG"]) {
		t.Errorf("KG (%f) should trail PKG (%f)", results["KG"], results["PKG"])
	}
	if !(results["PKG"] < results["D-C"]) {
		t.Errorf("PKG (%f) should trail D-C (%f)", results["PKG"], results["D-C"])
	}
	for _, algo := range []string{"D-C", "W-C"} {
		if results[algo] < 0.85*results["SG"] {
			t.Errorf("%s throughput %f should be close to SG %f", algo, results[algo], results["SG"])
		}
	}
}

func TestFig14LatencyOrderingAtHighSkew(t *testing.T) {
	// Paper Fig 14 (z=2.0): KG worst, PKG better, D-C/W-C near SG. PKG's
	// position is hash luck per seed — when the hot key's two candidates
	// coincide, PKG degenerates to KG and both sit at the closed-loop
	// latency cap — so the ordering is required to hold for a majority of
	// seeds rather than at a single one.
	gen := func() stream.Generator { return zipfGen(2.0, 1000, 30000) }
	n, s := 16, 8
	okKGPKG, okPKGWC := 0, 0
	seeds := []uint64{5, 7, 11}
	for _, seed := range seeds {
		p99 := map[string]float64{}
		for _, algo := range []string{"KG", "PKG", "W-C", "SG"} {
			cfg := baseCfg(algo, n, s)
			cfg.Core.Seed = seed
			cfg.Messages = 30000
			cfg.MeasureAfter = 8000 // steady state, past the sketch warmup
			r, err := Run(gen(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			p99[algo] = r.P99
		}
		if p99["KG"] > p99["PKG"] {
			okKGPKG++
		}
		if p99["PKG"] > p99["W-C"] {
			okPKGWC++
		}
		if p99["W-C"] > 4*p99["SG"] {
			t.Errorf("seed %d: W-C p99 (%f) should be within a few× of SG (%f)", seed, p99["W-C"], p99["SG"])
		}
	}
	if okKGPKG < 2 {
		t.Errorf("KG p99 should exceed PKG for most seeds; held for %d/%d", okKGPKG, len(seeds))
	}
	if okPKGWC < 2 {
		t.Errorf("PKG p99 should exceed W-C for most seeds; held for %d/%d", okPKGWC, len(seeds))
	}
}

func TestLatencyAboveServiceTime(t *testing.T) {
	res, _ := Run(zipfGen(1.0, 100, 5000), baseCfg("SG", 4, 2))
	if res.P50 < 1.0 {
		t.Fatalf("p50 latency %f below the 1 ms service time", res.P50)
	}
	if res.MaxAvgLatency < 1.0 {
		t.Fatalf("max-avg latency %f below service time", res.MaxAvgLatency)
	}
	if res.P99 < res.P50 || res.P95 < res.P50 {
		t.Fatal("latency percentiles out of order")
	}
}

// TestNothingMeasuredLatencyIsZero: a run whose warm-up covers the
// whole stream measures no message and reports 0 for every latency
// column, as an empty stream does.
func TestNothingMeasuredLatencyIsZero(t *testing.T) {
	cfg := baseCfg("SG", 4, 2)
	cfg.Messages = 500
	cfg.MeasureAfter = 500
	for _, gen := range []stream.Generator{zipfGen(1.0, 100, 500), stream.FromSlice(nil)} {
		res, err := Run(gen, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.P50 != 0 || res.P95 != 0 || res.P99 != 0 || res.MaxAvgLatency != 0 {
			t.Fatalf("p50/p95/p99/max-avg = %v/%v/%v/%v, want all 0", res.P50, res.P95, res.P99, res.MaxAvgLatency)
		}
	}
}

func TestWindowBoundsQueue(t *testing.T) {
	cfg := baseCfg("KG", 4, 4)
	cfg.Window = 10
	res, _ := Run(zipfGen(2.0, 100, 5000), cfg)
	// Total in-flight ≤ sources × window; one queue can hold at most that.
	if res.PeakQueue > cfg.Sources*cfg.Window {
		t.Fatalf("peak queue %d exceeds global window %d", res.PeakQueue, cfg.Sources*cfg.Window)
	}
}

func TestSlowWorkerInjection(t *testing.T) {
	// A straggler 10× slower drags throughput down for every scheme in
	// the paper: their load estimate counts messages *sent*, not service
	// completed, so none of them routes around slow hardware.
	healthy, _ := Run(zipfGen(0.5, 200, 10000), baseCfg("SG", 4, 2))
	for _, algo := range []string{"SG", "PKG"} {
		cfg := baseCfg(algo, 4, 2)
		cfg.SlowFactor = map[int]float64{0: 10}
		degraded, _ := Run(zipfGen(0.5, 200, 10000), cfg)
		if degraded.Throughput > 0.8*healthy.Throughput {
			t.Errorf("%s: straggler had no effect: %f vs healthy %f",
				algo, degraded.Throughput, healthy.Throughput)
		}
		if degraded.P99 < healthy.P99 {
			t.Errorf("%s: straggler should raise p99 (%f vs %f)", algo, degraded.P99, healthy.P99)
		}
	}
}

func TestMessagesCap(t *testing.T) {
	cfg := baseCfg("SG", 4, 2)
	cfg.Messages = 1234
	res, _ := Run(zipfGen(1.0, 100, 100000), cfg)
	if res.Completed != 1234 {
		t.Fatalf("completed %d, want capped 1234", res.Completed)
	}
}

func TestImbalanceConsistentWithLoads(t *testing.T) {
	res, _ := Run(zipfGen(2.0, 500, 10000), baseCfg("KG", 8, 4))
	if math.Abs(res.Imbalance) < 1e-9 {
		t.Fatal("KG under extreme skew should show imbalance")
	}
}

// TestAggregationDeterministic: two aggregation-enabled runs produce
// bit-identical overhead numbers (the point of modeling aggregation in
// the discrete-event engine).
func TestAggregationDeterministic(t *testing.T) {
	run := func() Result {
		cfg := baseCfg("D-C", 8, 4)
		cfg.AggWindow = 2_000
		res, err := Run(zipfGen(1.6, 500, 20000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Agg != b.Agg || a.AggReplication != b.AggReplication || a.AggTotal != b.AggTotal ||
		a.Throughput != b.Throughput || a.Duration != b.Duration ||
		a.ReducerUtil != b.ReducerUtil || a.ReducerPeakQueue != b.ReducerPeakQueue {
		t.Fatalf("aggregation run not deterministic:\n%+v\n%+v", a, b)
	}
	if a.ReducerUtil <= 0 || a.ReducerUtil > 1 {
		t.Fatalf("reducer utilization %f outside (0, 1]", a.ReducerUtil)
	}
}

// TestAggregationExactAndOrdered: every completed message is counted
// exactly once; KG's state replication is exactly 1 and W-C's is the
// largest; the flush cost shows up as a throughput delta that grows
// with replication.
func TestAggregationExactAndOrdered(t *testing.T) {
	const m = 20000
	type row struct {
		repl     float64
		partials int64
		thr      float64
	}
	rows := make(map[string]row)
	for _, algo := range []string{"KG", "PKG", "W-C"} {
		cfg := baseCfg(algo, 8, 4)
		cfg.AggWindow = 2_000
		res, err := Run(zipfGen(2.0, 500, m), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != m {
			t.Fatalf("%s: completed %d of %d", algo, res.Completed, m)
		}
		if res.AggTotal != res.Completed {
			t.Fatalf("%s: finals sum to %d, completed %d", algo, res.AggTotal, res.Completed)
		}
		if res.Agg.WindowsClosed < m/2_000 {
			t.Fatalf("%s: closed %d windows", algo, res.Agg.WindowsClosed)
		}
		rows[algo] = row{repl: res.AggReplication, partials: res.Agg.Partials, thr: res.Throughput}
	}
	if rows["KG"].repl != 1 {
		t.Fatalf("KG replication = %f, want exactly 1", rows["KG"].repl)
	}
	if !(rows["W-C"].repl > rows["PKG"].repl && rows["PKG"].repl > 1) {
		t.Fatalf("replication ordering violated: PKG %f, W-C %f", rows["PKG"].repl, rows["W-C"].repl)
	}
	if !(rows["W-C"].partials > rows["KG"].partials) {
		t.Fatalf("partials ordering violated: KG %d, W-C %d", rows["KG"].partials, rows["W-C"].partials)
	}
}

// TestAggregationFlushCostSlowsHotWorker: with a huge flush cost, an
// aggregation-enabled run takes longer than the same run without
// aggregation — the overhead is on the simulated clock, not just in
// counters.
func TestAggregationFlushCostSlowsHotWorker(t *testing.T) {
	base := baseCfg("PKG", 8, 4)
	plain, err := Run(zipfGen(1.4, 500, 20000), base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.AggWindow = 1_000
	cfg.AggFlushCost = 1.0 // one full service time per partial
	agg, err := Run(zipfGen(1.4, 500, 20000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(agg.Duration > plain.Duration) {
		t.Fatalf("aggregation did not cost simulated time: plain %f ms, agg %f ms",
			plain.Duration, agg.Duration)
	}
	if !(agg.Throughput < plain.Throughput) {
		t.Fatalf("aggregation did not cost throughput: plain %f, agg %f",
			plain.Throughput, agg.Throughput)
	}
}

// TestAggregationSmallWindowsNoLates pins the completeness-based close:
// even with windows far smaller than the in-flight span (AggWindow=100
// vs Sources×Window=800, where a message stuck behind the hot worker's
// queue is overtaken by thousands of newer seqs), no window closes
// early — zero late corrections, exactly one Final per (window, key).
func TestAggregationSmallWindowsNoLates(t *testing.T) {
	const m = 20000
	for _, algo := range []string{"KG", "D-C"} {
		cfg := baseCfg(algo, 16, 8)
		cfg.Window = 100
		cfg.AggWindow = 100
		res, err := Run(zipfGen(1.4, 500, m), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg.Late != 0 {
			t.Fatalf("%s: %d late corrections, want 0 (completeness close)", algo, res.Agg.Late)
		}
		if res.Agg.WindowsClosed != m/100 {
			t.Fatalf("%s: closed %d windows, want exactly %d (no re-closes)", algo, res.Agg.WindowsClosed, m/100)
		}
		if res.AggTotal != res.Completed {
			t.Fatalf("%s: finals sum %d, completed %d", algo, res.AggTotal, res.Completed)
		}
	}
}

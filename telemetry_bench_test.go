package slb_test

import (
	"testing"
	"time"

	"slb"
	"slb/internal/core"
	"slb/internal/telemetry"
)

// This file pins the telemetry hot-path budget on the routing fast
// path: the instrumented form of RouteBatchDigests — the exact pattern
// the engines' spout loops use (one time.Now pair per slab, one
// RouteRecorder.RecordBatch publishing counter deltas) — must stay at
// 0 allocs/op and within 3% ns/op of the uninstrumented path. The
// allocation half is asserted by TestInstrumentedRoutingZeroAllocs in
// the tier-1 suite; the timing half is asserted inside
// BenchmarkRouteBatchDigestsInstrumented, which the benchtime=1x CI
// job runs (the measurement below is self-paced, so one harness
// iteration still performs the full paired comparison).

const instrRounds = 9
const instrSlabsPerRound = 48

// newWarmBenchPartitioner builds a partitioner warmed to steady state
// (sketch at capacity, caches primed) on the shared bench workload, in
// the default configuration: the D-C solver runs inside the measured
// windows, as in TestSteadyStateRoutingZeroAllocs.
func newWarmBenchPartitioner(tb testing.TB, algo string) slb.Partitioner {
	p, err := slb.New(algo, slb.Config{Workers: benchWorkers, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	warm := slb.NewZipfStream(benchZ, benchKeys, 50_000, 2)
	for one := make([]string, 1); warm.NextBatch(one) == 1; {
		p.Route(one[0])
	}
	return p
}

// benchSlabs materializes count slabs of the bench stream so both sides
// of the paired measurement route identical keys.
func benchSlabs(count int) [][]string {
	gen := slb.NewZipfStream(benchZ, benchKeys, int64(count*benchSlabSize), 1)
	slabs := make([][]string, 0, count)
	buf := make([]string, benchSlabSize)
	for len(slabs) < count {
		n := slb.NextBatch(gen, buf)
		if n == 0 {
			break
		}
		s := make([]string, n)
		copy(s, buf[:n])
		slabs = append(slabs, s)
	}
	return slabs
}

// routeSlabs routes every slab once; when rec is non-nil each slab is
// timed and published, exactly as the engines do it.
func routeSlabs(p slb.Partitioner, slabs [][]string, digs []slb.KeyDigest, dst []int, rec *core.RouteRecorder) {
	for _, keys := range slabs {
		if rec != nil {
			t0 := time.Now()
			slb.RouteBatchDigests(p, keys, digs, dst)
			rec.RecordBatch(p, len(keys), time.Since(t0))
		} else {
			slb.RouteBatchDigests(p, keys, digs, dst)
		}
	}
}

// BenchmarkRouteBatchDigestsInstrumented runs the paired comparison and
// FAILS if the instrumented path exceeds the uninstrumented one by more
// than 3% (min over interleaved rounds on identical key sequences — the
// min filters scheduler noise, the interleaving cancels thermal drift).
func BenchmarkRouteBatchDigestsInstrumented(b *testing.B) {
	for _, algo := range []string{"D-C", "W-C", "PKG"} {
		b.Run(algo, func(b *testing.B) {
			plain := newWarmBenchPartitioner(b, algo)
			instr := newWarmBenchPartitioner(b, algo)
			reg := telemetry.NewRegistry()
			rec := core.NewRouteRecorder(reg, telemetry.L("algo", algo), telemetry.L("engine", "bench"))
			slabs := benchSlabs(instrSlabsPerRound)
			digs := make([]slb.KeyDigest, benchSlabSize)
			dst := make([]int, benchSlabSize)

			// One untimed pass each to settle branch predictors and the
			// candidate caches on this key set.
			routeSlabs(plain, slabs, digs, dst, nil)
			routeSlabs(instr, slabs, digs, dst, rec)

			minPlain, minInstr := time.Duration(1<<62), time.Duration(1<<62)
			for r := 0; r < instrRounds; r++ {
				t0 := time.Now()
				routeSlabs(plain, slabs, digs, dst, nil)
				if d := time.Since(t0); d < minPlain {
					minPlain = d
				}
				t0 = time.Now()
				routeSlabs(instr, slabs, digs, dst, rec)
				if d := time.Since(t0); d < minInstr {
					minInstr = d
				}
			}
			ratio := float64(minInstr) / float64(minPlain)
			b.ReportMetric(ratio, "instr/plain")
			b.ReportMetric(float64(minInstr-minPlain)/float64(instrSlabsPerRound), "overhead-ns/slab")
			// 3% relative budget plus a 200ns/slab absolute floor so a
			// sub-microsecond-slab scheme cannot fail on timer
			// granularity alone.
			if slack := time.Duration(200 * instrSlabsPerRound); minInstr > minPlain+minPlain*3/100+slack {
				b.Fatalf("%s: instrumented RouteBatchDigests %.2f%% over uninstrumented (%v vs %v per round), budget 3%%",
					algo, (ratio-1)*100, minInstr, minPlain)
			}

			// Keep the harness loop meaningful: ns/op is the instrumented
			// slab cost.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keys := slabs[i%len(slabs)]
				t0 := time.Now()
				slb.RouteBatchDigests(instr, keys, digs, dst)
				rec.RecordBatch(instr, len(keys), time.Since(t0))
			}
		})
	}
}

// TestInstrumentedRoutingZeroAllocs is the allocation half of the
// budget, asserted in the tier-1 suite: steady-state instrumented
// routing — RouteBatchDigests plus RecordBatch — allocates nothing.
func TestInstrumentedRoutingZeroAllocs(t *testing.T) {
	for _, algo := range []string{"D-C", "W-C", "PKG", "RR"} {
		p := newWarmBenchPartitioner(t, algo)
		reg := telemetry.NewRegistry()
		rec := core.NewRouteRecorder(reg, telemetry.L("algo", algo))
		slabs := benchSlabs(16)
		digs := make([]slb.KeyDigest, benchSlabSize)
		dst := make([]int, benchSlabSize)
		routeSlabs(p, slabs, digs, dst, rec) // settle caches
		i := 0
		if avg := testing.AllocsPerRun(200, func() {
			keys := slabs[i%len(slabs)]
			i++
			t0 := time.Now()
			slb.RouteBatchDigests(p, keys, digs, dst)
			rec.RecordBatch(p, len(keys), time.Since(t0))
		}); avg != 0 {
			t.Errorf("%s: instrumented routing allocates %.4f allocs/slab, want 0", algo, avg)
		}
	}
}

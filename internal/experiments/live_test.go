package experiments

import (
	"testing"
	"time"
)

// TestLiveMatchesModelThroughput is the magnitude check between the
// goroutine runtime and its model: at n = 16, S = 8, z = 1.4, ack window
// 64 over the memory transport, the live throughput of D-C, W-C and SG
// is within 5% of eventsim's for the same cell, at 1 ms and at 100 µs of
// service per tuple. The bolts pay service net of timer oversleep, so a
// late timer costs no throughput, which a bare sleep per tuple would.
//
// KG and PKG are printed, not gated. Each leaves one worker saturated
// (busy nearly all of the run) while the others idle, so its throughput
// is that one worker's service rate over its share of the stream, and
// the ratio turns on the span each engine divides by rather than on the
// service the engine pays. Both spans here cover the whole run, and the
// ratio reads about 1.00; measure the model after a warm-up of m/5
// completions instead, as Figs 13–14 do, and it drops the fast early
// phase in which the idle workers drain their first tuples, so the
// same live run reads 1.12 (KG) and 1.14 (PKG) against it.
func TestLiveMatchesModelThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment skipped in -short")
	}
	const z = 1.4
	gated := map[string]bool{"D-C": true, "W-C": true, "SG": true}
	for _, service := range []time.Duration{time.Millisecond, 100 * time.Microsecond} {
		// 4 s of service in all, so a balanced run lasts about 0.25 s at
		// either service time.
		m := int64(4 * time.Second / service)
		for _, algo := range clusterAlgos {
			// A gated cell gets up to three runs and passes on the first
			// inside the band: a host busy with other work can starve the
			// live engine for a run, while a fault in the engine reads
			// outside the band on every run.
			for attempt := 1; ; attempt++ {
				live, model, err := liveCell(algo, z, service, m)
				if err != nil {
					t.Fatal(err)
				}
				ratio := live.Throughput / model.Throughput
				t.Logf("%v %-3s live %7.0f ev/s p99 %6.2f ms | model %7.0f ev/s p99 %6.2f ms | live/model %.3f",
					service, algo, live.Throughput, float64(live.P99)/float64(time.Millisecond),
					model.Throughput, model.P99, ratio)
				if !gated[algo] || (ratio >= 0.95 && ratio <= 1.05) {
					break
				}
				if attempt == 3 {
					t.Errorf("%v %s: live/model throughput %.3f (live %.0f, model %.0f) on %d runs, want within [0.95, 1.05]",
						service, algo, ratio, live.Throughput, model.Throughput, attempt)
					break
				}
			}
		}
	}
}

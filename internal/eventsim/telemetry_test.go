package eventsim

import (
	"reflect"
	"testing"

	"slb/internal/telemetry"
)

func sumSeries(snap telemetry.Snapshot, name string) (total float64, series int) {
	for _, m := range snap.Metrics {
		if m.Name == name {
			total += m.Value
			series++
		}
	}
	return total, series
}

// TestTelemetryFedBySimulation runs the aggregating simulation with a
// registry attached and checks the published series agree with the
// Result — the counters are simulated-time-deterministic, so equality
// is exact.
func TestTelemetryFedBySimulation(t *testing.T) {
	cfg := baseCfg("W-C", 8, 4)
	cfg.AggWindow = 500
	cfg.AggShards = 2
	// Pin the cost knobs explicitly so the test can predict the exact
	// published busy total (withDefaults would derive them otherwise).
	cfg.AggFlushCost = 0.1
	cfg.AggMergeCost = 0.025
	cfg.Telemetry = telemetry.NewRegistry()
	res, err := Run(zipfGen(1.2, 500, 20000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := cfg.Telemetry.Snapshot()

	if v, _ := sumSeries(snap, "sim_emitted_total"); int64(v) != 20000 {
		t.Fatalf("sim_emitted_total = %v, want 20000", v)
	}
	if v, _ := sumSeries(snap, "sim_completed_total"); int64(v) != res.Completed {
		t.Fatalf("sim_completed_total = %v, result completed %d", v, res.Completed)
	}
	if v, n := sumSeries(snap, "route_msgs_total"); int64(v) != 20000 || n != cfg.Sources {
		t.Fatalf("route_msgs_total = %v over %d series, want 20000 over %d", v, n, cfg.Sources)
	}
	if v, _ := sumSeries(snap, "sim_peak_queue"); int(v) != res.PeakQueue {
		t.Fatalf("sim_peak_queue = %v, result has %d", v, res.PeakQueue)
	}
	if _, n := sumSeries(snap, "queue_depth"); n != cfg.Workers {
		t.Fatalf("queue_depth series = %d, want %d", n, cfg.Workers)
	}
	// Every flushed partial is admitted for exactly AggMergeCost of
	// simulated service; the published busy total must equal it.
	wantBusy := float64(res.Agg.Partials * simNS(cfg.AggMergeCost))
	if v, n := sumSeries(snap, "reduce_busy_ns_total"); v != wantBusy || n != cfg.AggShards {
		t.Fatalf("reduce_busy_ns_total = %v over %d series, want %v over %d", v, n, wantBusy, cfg.AggShards)
	}
	if v, _ := sumSeries(snap, "reduce_queue_peak"); int(v) < res.ReducerPeakQueue {
		t.Fatalf("reduce_queue_peak sum %v below result peak %d", v, res.ReducerPeakQueue)
	}
	for _, gauge := range []string{"reduce_open_windows", "reduce_live_entries"} {
		v, n := sumSeries(snap, gauge)
		if n != cfg.AggShards {
			t.Fatalf("%s series = %d, want %d", gauge, n, cfg.AggShards)
		}
		if v != 0 {
			t.Fatalf("%s = %v after the run, want 0", gauge, v)
		}
	}
	if v, n := sumSeries(snap, "reduce_replication"); n != cfg.AggShards || v < float64(n) {
		t.Fatalf("reduce_replication = %v over %d series, want ≥ 1 on each of %d", v, n, cfg.AggShards)
	}
}

// TestTelemetryDoesNotPerturbSimulation pins that attaching a registry
// changes nothing about the simulated outcome: results are bit-equal
// with and without it.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	mk := func(reg *telemetry.Registry) Result {
		cfg := baseCfg("D-C", 8, 4)
		cfg.AggWindow = 500
		cfg.AggShards = 2
		cfg.Telemetry = reg
		res, err := Run(zipfGen(1.2, 500, 20000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := mk(nil)
	instr := mk(telemetry.NewRegistry())
	if !reflect.DeepEqual(plain, instr) {
		t.Fatalf("telemetry perturbed the simulation:\nplain %+v\ninstr %+v", plain, instr)
	}
}

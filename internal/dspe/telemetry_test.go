package dspe

import (
	"testing"
	"time"

	"slb/internal/telemetry"
)

// sumSeries totals every series of the snapshot with the given name
// (across worker/spout/shard labels), returning the sum and how many
// series matched.
func sumSeries(snap telemetry.Snapshot, name string) (total float64, series int) {
	for _, m := range snap.Metrics {
		if m.Name == name {
			total += m.Value
			series++
		}
	}
	return total, series
}

func telemetryCfg(algo string, backend Transport) Config {
	cfg := baseCfg(algo, 4, 2)
	cfg.ServiceTime = 0
	cfg.Transport = backend
	cfg.AggWindow = 256
	cfg.AggShards = 2
	cfg.Telemetry = telemetry.NewRegistry()
	return cfg
}

// TestTelemetryBothPlanes runs the aggregating topology over each
// backend with a registry attached and checks every layer fed it:
// routing, links, bolts, and the sharded reduce stage.
func TestTelemetryBothPlanes(t *testing.T) {
	const msgs = 6000
	for _, b := range backends {
		name := engineName(b.sel)
		t.Run(name, func(t *testing.T) {
			cfg := telemetryCfg("W-C", b.sel)
			res, err := Run(zipfGen(1.2, 300, msgs), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != msgs {
				t.Fatalf("completed %d, want %d", res.Completed, msgs)
			}
			snap := cfg.Telemetry.Snapshot()
			for _, m := range snap.Metrics {
				if eng := m.Label("engine"); eng != "" && eng != name {
					t.Fatalf("%s carries engine=%q, want %q", m.Name, eng, name)
				}
			}

			// Routing: every message routed exactly once, across spouts.
			if v, n := sumSeries(snap, "route_msgs_total"); v != msgs || n != cfg.Sources {
				t.Fatalf("route_msgs_total = %v over %d series, want %d over %d", v, n, msgs, cfg.Sources)
			}
			if v, _ := sumSeries(snap, "route_ns_total"); v <= 0 {
				t.Fatal("route_ns_total not populated")
			}
			// Bolts: processed counts must agree with the result.
			if v, n := sumSeries(snap, "bolt_msgs_total"); int64(v) != res.Completed || n != cfg.Workers {
				t.Fatalf("bolt_msgs_total = %v over %d series, want %d over %d", v, n, res.Completed, cfg.Workers)
			}
			// Queue-depth gauges registered per worker (0 after drain).
			if _, n := sumSeries(snap, "queue_depth"); n != cfg.Workers {
				t.Fatalf("queue_depth series = %d, want %d", n, cfg.Workers)
			}
			// Aggregation: bolts flushed what the result says they did, and
			// the reducers merged exactly that.
			if v, _ := sumSeries(snap, "bolt_partials_total"); int64(v) != res.AggBoltPartials {
				t.Fatalf("bolt_partials_total = %v, result has %d", v, res.AggBoltPartials)
			}
			reduced, n := sumSeries(snap, "reduce_partials_total")
			if n != cfg.AggShards {
				t.Fatalf("reduce_partials_total series = %d, want %d", n, cfg.AggShards)
			}
			if int64(reduced) != res.Agg.Partials {
				t.Fatalf("reduce_partials_total = %v, result merged %d", reduced, res.Agg.Partials)
			}
			if int64(reduced) != res.AggBoltPartials {
				t.Fatalf("reducers merged %v partials, bolts flushed %d", reduced, res.AggBoltPartials)
			}
			if v, n := sumSeries(snap, "reduce_busy_ns_total"); v <= 0 || n != cfg.AggShards {
				t.Fatalf("reduce_busy_ns_total = %v over %d series", v, n)
			}
			// Occupancy gauges drain to zero after the run completes.
			for _, gauge := range []string{"reduce_open_windows", "reduce_live_entries"} {
				v, n := sumSeries(snap, gauge)
				if n != cfg.AggShards {
					t.Fatalf("%s series = %d, want %d", gauge, n, cfg.AggShards)
				}
				if v != 0 {
					t.Fatalf("%s = %v after drain, want 0", gauge, v)
				}
			}
			// Replication is a live per-shard series; every shard held keys,
			// and a key is on at least one worker.
			if v, n := sumSeries(snap, "reduce_replication"); n != cfg.AggShards || v < float64(n) {
				t.Fatalf("reduce_replication = %v over %d series, want ≥ 1 on each of %d", v, n, cfg.AggShards)
			}
		})
	}
}

// TestTelemetryOffAddsNothing pins the nil-registry contract: no
// telemetry field means every hook is a nil-receiver no-op and results
// are unchanged.
func TestTelemetryOffAddsNothing(t *testing.T) {
	cfg := telemetryCfg("D-C", TransportMemory)
	cfg.Telemetry = nil
	res, err := Run(zipfGen(1.2, 300, 2000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2000 || res.AggTotal != 2000 {
		t.Fatalf("run degraded without telemetry: %+v", res)
	}
}

// TestTelemetrySnapshotDuringRun snapshots concurrently with a live
// run — the registry hot path and the gauge funcs must tolerate being
// read mid-flight (the soak harness does exactly this).
func TestTelemetrySnapshotDuringRun(t *testing.T) {
	cfg := telemetryCfg("W-C", TransportMemory)
	cfg.ServiceTime = 50 * time.Microsecond
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
				cfg.Telemetry.Snapshot()
			}
		}
	}()
	if _, err := Run(zipfGen(1.2, 300, 4000), cfg); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-snapped
	snap := cfg.Telemetry.Snapshot()
	if v, _ := sumSeries(snap, "route_msgs_total"); v != 4000 {
		t.Fatalf("route_msgs_total = %v, want 4000", v)
	}
}

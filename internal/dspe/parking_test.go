package dspe

import (
	"runtime"
	"testing"
	"time"

	"slb/internal/core"
	"slb/internal/stream"
	"slb/internal/telemetry"
	"slb/internal/transport"
)

// goroutinesSettle waits for the goroutine count to come back down to
// `before` (teardown finishes asynchronously: a closed connection's
// reader notices a moment later) and dumps the survivors if it never
// does.
func goroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<17)
			t.Fatalf("goroutines: %d before the run, %d five seconds after it\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosSevers sums the transport_chaos_severs_total counters in reg.
func chaosSevers(reg *telemetry.Registry) float64 {
	var n float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "transport_chaos_severs_total" {
			n += m.Value
		}
	}
	return n
}

// TestTransportPlaneLeaksNoGoroutine checks the engine's three exit
// paths — clean, clean after riding out a chaos schedule, and a hard
// link error — for goroutines left behind: parked waiters nobody woke,
// or transport stages nobody stopped. The chaos cases must also show
// the severs they rode out in the links' transport_chaos_* counters.
func TestTransportPlaneLeaksNoGoroutine(t *testing.T) {
	base := Config{
		Workers:   6,
		Sources:   2,
		Algorithm: "D-C",
		AggWindow: 400,
		AggShards: 2,
		Messages:  12_000,
	}
	for _, tc := range []struct {
		name  string
		sel   Transport
		chaos *transport.ChaosConfig
	}{
		{"clean/memory", TransportMemory, nil},
		{"clean/tcp", TransportTCP, nil},
		{"chaos/tcp", TransportTCP, &transport.ChaosConfig{Seed: 23, DropOneIn: 4, SeverEvery: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			reg := telemetry.NewRegistry()
			cfg := base
			cfg.Transport, cfg.Chaos, cfg.Telemetry = tc.sel, tc.chaos, reg
			res, err := Run(zipfGen(1.2, 250, 12_000), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != 12_000 {
				t.Fatalf("completed %d, want 12000", res.Completed)
			}
			if tc.chaos != nil && chaosSevers(reg) == 0 {
				t.Fatal("a run under chaos counted no sever")
			}
			goroutinesSettle(t, before)
		})
	}

	// The hard-error path needs a fabric Run would never build: TCP with
	// reconnection disabled, severed mid-run. Where the severs fall
	// relative to the spouts' ack waits is a race, so it runs many times:
	// a link that dies while its spout is parked on acks must still end
	// the run (the bolt that sees the dead link reports it), and that
	// interleaving turned up about once in thirty runs.
	t.Run("hard-error/tcp", func(t *testing.T) {
		before := runtime.NumGoroutine()
		cfg, err := base.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Transport = TransportTCP
		for seed := uint64(1); seed <= 40; seed++ {
			parts := make([]core.Partitioner, cfg.Sources)
			for i := range parts {
				srcCfg := cfg.Core
				srcCfg.Instance = i
				if parts[i], err = core.New(cfg.Algorithm, srcCfg); err != nil {
					t.Fatal(err)
				}
			}
			reg := telemetry.NewRegistry()
			fabric, err := transport.NewTCPWithConfig(reg, transport.TCPConfig{
				MaxReconnects: -1,
				Chaos:         &transport.ChaosConfig{Seed: seed, SeverEvery: 7},
			})
			if err != nil {
				t.Fatal(err)
			}
			gen := zipfGen(1.2, 250, 200_000)
			_, err = runOnFabric(fabric, stream.NewSource(gen, 200_000), cfg, parts)
			fabric.Close()
			if err == nil {
				t.Fatal("run over links severed with reconnection disabled reported no error")
			}
			if chaosSevers(reg) == 0 {
				t.Fatal("a run that failed on a sever counted none")
			}
			goroutinesSettle(t, before)
		}
	})
}

// TestTransportPlaneCountsParks: with telemetry on, a run whose bolts
// sleep 200 µs per message leaves every stage waiting most of the time,
// and the waiting must be visible — parks counted per goroutine, and the
// two stall clocks (which now time yield phase plus park) running.
func TestTransportPlaneCountsParks(t *testing.T) {
	cfg := telemetryCfg("D-C", TransportMemory)
	cfg.ServiceTime = 200 * time.Microsecond
	res, err := Run(zipfGen(1.2, 300, 2000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2000 {
		t.Fatalf("completed %d, want 2000", res.Completed)
	}
	snap := cfg.Telemetry.Snapshot()
	for _, want := range []struct {
		name   string
		series int
	}{
		{"spout_parks_total", cfg.Sources},
		{"bolt_parks_total", cfg.Workers},
		{"shard_parks_total", cfg.AggShards},
		{"spout_ack_wait_ns_total", cfg.Sources},
		{"acquire_stall_ns_total", cfg.Workers},
	} {
		v, n := sumSeries(snap, want.name)
		if n != want.series {
			t.Errorf("%s: %d series, want %d", want.name, n, want.series)
		}
		if v <= 0 {
			t.Errorf("%s = %v on a run that waits most of the time", want.name, v)
		}
	}
}

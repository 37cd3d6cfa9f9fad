package experiments

import (
	"fmt"

	"slb/internal/core"
	"slb/internal/dspe"
	"slb/internal/eventsim"
	"slb/internal/telemetry"
	"slb/internal/texttab"
	"slb/internal/transport"
	"slb/internal/workload"
)

// Transport experiment parameters: the same deployment as the
// aggregation experiment (n=16, s=8, z=1.4, R=4) so the numbers sit in
// one family, with the in-flight window deepened to 4096 on both
// backends — the default 100 makes a TCP run ack-latency bound (each
// burst waits out a loopback syscall round trip), and the deeper
// window is applied uniformly so the backend comparison stays an A/B.
const (
	transShards = 4
	transWindow = 4096
)

// transMessages is m for the transport sweep at each scale.
func (s Scale) transMessages() int64 {
	switch s {
	case Full:
		return 1_000_000
	case Default:
		return 200_000
	default:
		return 30_000
	}
}

// transDelays sweeps the eventsim worker→reducer hop delay (ms): free,
// same-rack, and cross-zone flavors.
var transDelays = []float64{0, 0.2, 2}

// TransportExperiment prices leaving the single process, from both
// directions.
//
// The first table runs the goroutine engine's W-C aggregation topology
// over its two link backends — in-process SPSC rings (memory) and
// loopback TCP with the columnar dictionary codec — and reports
// wall-clock throughput plus the TCP wire's own ledger (tx/rx bytes,
// bytes per message, frames, bytes/frame, flushes, dictionary hit rate
// and epoch resets) from the per-link telemetry. Finals and replication
// are bit-equal across the backends (pinned by dspe's parity tests);
// what moves is only the transport cost, so the TCP row's ratio to the
// memory row is the price of framing + kernel sockets.
//
// The second table degrades the TCP backend with its deterministic chaos
// schedule — dropped frames and severed connections at two loss levels —
// and prices the recovery machinery per algorithm: reconnect episodes,
// retransmitted frames/bytes, duplicate drops at the receive edge, and
// accumulated outage time. Exactness is untouched (the fault-parity
// tests pin bit-equal finals); only throughput and wire overhead move,
// and the retransmission bill orders by replication: W-C ≥ D-C ≥ KG.
//
// The third table walks the deterministic engine's per-link delay
// model (eventsim.Config.LinkDelay) over the worker→reducer hop for
// each algorithm: every flushed partial pays the hop delay, so an
// algorithm's sensitivity scales with its replication factor — KG
// (replication 1) barely notices 2 ms while W-C's degradation is the
// replication bill resurfacing as wire latency.
//
// The fourth table adds periodic per-link outage windows to the
// deterministic engine (eventsim.Config.LinkOutagePeriod/Duration):
// partials arriving while a link is dark are lost and retransmitted on
// recovery, the closed-form analogue of the live chaos sweep above.
func TransportExperiment(sc Scale) ([]*texttab.Table, error) {
	m := sc.transMessages()

	live := texttab.New(fmt.Sprintf(
		"Transport sweep (dspe, wall clock): W-C, n=%d, s=%d, z=%.1f, R=%d, m=%d, window=%d",
		aggWorkers, aggSources, aggSkew, transShards, m, transWindow),
		"backend", "events/s", "rel", "replication", "tx-MB", "rx-MB", "B/msg", "frames", "B/frame", "flushes", "dict-hit%", "resets")
	backends := []struct {
		name string
		tr   dspe.Transport
	}{
		{"memory", dspe.TransportMemory},
		{"tcp", dspe.TransportTCP},
	}
	var base float64
	for _, backend := range backends {
		var reg *telemetry.Registry
		if backend.tr == dspe.TransportTCP {
			reg = telemetry.NewRegistry()
		}
		gen := workload.NewZipf(aggSkew, ZFKeys, m, Seed)
		res, err := dspe.Run(gen, dspe.Config{
			Workers:   aggWorkers,
			Sources:   aggSources,
			Algorithm: "W-C",
			Core:      core.Config{Seed: Seed, Epsilon: Epsilon},
			Window:    transWindow,
			AggWindow: m / 50,
			AggShards: transShards,
			Transport: backend.tr,
			Telemetry: reg,
		})
		if err != nil {
			return nil, err
		}
		if backend.tr == dspe.TransportMemory {
			base = res.Throughput
		}
		rel := 0.0
		if base > 0 {
			rel = res.Throughput / base
		}
		txMB, rxMB, bpm, frames, bpf, flushes, hitPct, resets := "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a"
		if reg != nil {
			bytes := sumCounter(reg, "transport_tx_bytes_total")
			fr := sumCounter(reg, "transport_frames_total")
			msgs := sumCounter(reg, "transport_tx_msgs_total")
			txMB = fmt.Sprintf("%.1f", bytes/(1<<20))
			rxMB = fmt.Sprintf("%.1f", sumCounter(reg, "transport_rx_bytes_total")/(1<<20))
			if msgs > 0 {
				bpm = fmt.Sprintf("%.2f", bytes/msgs)
			}
			frames = fmt.Sprintf("%.0f", fr)
			if fr > 0 {
				bpf = fmt.Sprintf("%.0f", bytes/fr)
			}
			flushes = fmt.Sprintf("%.0f", sumCounter(reg, "transport_flushes_total"))
			if msgs > 0 {
				hitPct = fmt.Sprintf("%.1f", 100*sumCounter(reg, "transport_dict_hits_total")/msgs)
			}
			resets = fmt.Sprintf("%.0f", sumCounter(reg, "transport_dict_resets_total"))
		}
		live.Add(
			backend.name,
			fmt.Sprintf("%.0f", res.Throughput),
			fmt.Sprintf("%.2fx", rel),
			fmt.Sprintf("%.4f", res.AggReplication),
			txMB, rxMB, bpm, frames, bpf, flushes, hitPct, resets,
		)
	}

	// Degraded links: the same W-C/D-C/KG topologies over loopback TCP
	// with the chaos schedule (TCPConfig.Chaos) dropping frames and
	// severing connections deterministically. Finals stay bit-equal to
	// the fault-free run (pinned by dspe's fault-parity test); what the
	// table prices is the recovery machinery — reconnect episodes, retransmitted frames
	// and bytes, receive-edge duplicate drops — and the throughput it
	// costs. Retransmission cost tracks wire traffic, which tracks
	// replication: W-C resends the most bytes, then D-C, then KG.
	faultLevels := []struct {
		name  string
		chaos *transport.ChaosConfig
	}{
		{"none", nil},
		{"0.5%", &transport.ChaosConfig{Seed: Seed, DropOneIn: 200, SeverEvery: 4096}},
		{"2%", &transport.ChaosConfig{Seed: Seed, DropOneIn: 50, SeverEvery: 1024}},
	}
	degraded := texttab.New(fmt.Sprintf(
		"Degraded links (dspe, loopback TCP + chaos): n=%d, s=%d, z=%.1f, R=%d, m=%d, window=%d",
		aggWorkers, aggSources, aggSkew, transShards, m, transWindow),
		"loss", "algo", "events/s", "Δthr%", "reconnects", "retrans-frames", "retrans-MB", "dup-drops", "outage-ms")
	faultBase := make(map[string]float64)
	for _, lvl := range faultLevels {
		for _, algo := range []string{"KG", "D-C", "W-C"} {
			reg := telemetry.NewRegistry()
			gen := workload.NewZipf(aggSkew, ZFKeys, m, Seed)
			res, err := dspe.Run(gen, dspe.Config{
				Workers:   aggWorkers,
				Sources:   aggSources,
				Algorithm: algo,
				Core:      core.Config{Seed: Seed, Epsilon: Epsilon},
				Window:    transWindow,
				AggWindow: m / 50,
				AggShards: transShards,
				Transport: dspe.TransportTCP,
				Telemetry: reg,
				Chaos:     lvl.chaos,
			})
			if err != nil {
				return nil, err
			}
			if lvl.chaos == nil {
				faultBase[algo] = res.Throughput
			}
			drop := 0.0
			if b := faultBase[algo]; b > 0 {
				drop = 100 * (1 - res.Throughput/b)
			}
			degraded.Add(
				lvl.name,
				algo,
				fmt.Sprintf("%.0f", res.Throughput),
				fmt.Sprintf("%.1f", drop),
				fmt.Sprintf("%.0f", sumCounter(reg, "transport_reconnects_total")),
				fmt.Sprintf("%.0f", sumCounter(reg, "transport_retransmit_frames_total")),
				fmt.Sprintf("%.2f", sumCounter(reg, "transport_retransmit_bytes_total")/(1<<20)),
				fmt.Sprintf("%.0f", sumCounter(reg, "transport_dup_msgs_dropped_total")),
				fmt.Sprintf("%.0f", 1000*sumCounter(reg, "transport_outage_seconds")),
			)
		}
	}

	delay := texttab.New(fmt.Sprintf(
		"Link-delay sweep (eventsim, deterministic): worker→reducer hop delay, n=%d, s=%d, z=%.1f, R=%d, m=%d, jitter=delay/4, slow 1-in-512",
		aggWorkers, aggSources, aggSkew, transShards, m),
		"delay-ms", "algo", "events/s", "Δthr%", "replication", "red-util")
	baseThr := make(map[string]float64)
	for _, d := range transDelays {
		for _, algo := range clusterAlgos {
			gen := workload.NewZipf(aggSkew, ZFKeys, m, Seed)
			res, err := eventsim.Run(gen, eventsim.Config{
				Workers:       aggWorkers,
				Sources:       aggSources,
				Algorithm:     algo,
				Core:          core.Config{Seed: Seed, Epsilon: Epsilon},
				ServiceTime:   1.0,
				Window:        100,
				Messages:      m,
				AggWindow:     m / 50,
				AggShards:     transShards,
				LinkDelay:     d,
				LinkJitter:    d / 4,
				LinkSlowOneIn: 512,
				MeasureAfter:  m / 5,
			})
			if err != nil {
				return nil, err
			}
			if d == 0 {
				baseThr[algo] = res.Throughput
			}
			drop := 0.0
			if b := baseThr[algo]; b > 0 {
				drop = 100 * (1 - res.Throughput/b)
			}
			delay.Add(
				fmt.Sprintf("%.1f", d),
				algo,
				fmt.Sprintf("%.0f", res.Throughput),
				fmt.Sprintf("%.1f", drop),
				fmt.Sprintf("%.4f", res.AggReplication),
				fmt.Sprintf("%.3f", res.ReducerUtil),
			)
		}
	}

	// Outage windows in the deterministic engine: each worker→reducer
	// link periodically goes dark (staggered per-link phase); partials
	// arriving in a dark window are lost and retransmitted when the link
	// recovers, charged as deferred arrivals in the closed-form
	// recurrence. The table walks the dark fraction (duration/period) at
	// a fixed 50 ms cycle.
	outage := texttab.New(fmt.Sprintf(
		"Link-outage sweep (eventsim, deterministic): 50ms cycle, staggered per-link phase, n=%d, s=%d, z=%.1f, R=%d, m=%d, hop=0.2ms",
		aggWorkers, aggSources, aggSkew, transShards, m),
		"dark%", "algo", "events/s", "Δthr%", "retransmits", "outage-wait-ms", "replication")
	outBase := make(map[string]float64)
	for _, darkPct := range []float64{0, 2, 10} {
		period := 50.0
		if darkPct == 0 {
			period = 0 // outage model off; duration would otherwise default to period/10
		}
		for _, algo := range clusterAlgos {
			gen := workload.NewZipf(aggSkew, ZFKeys, m, Seed)
			res, err := eventsim.Run(gen, eventsim.Config{
				Workers:            aggWorkers,
				Sources:            aggSources,
				Algorithm:          algo,
				Core:               core.Config{Seed: Seed, Epsilon: Epsilon},
				ServiceTime:        1.0,
				Window:             100,
				Messages:           m,
				AggWindow:          m / 50,
				AggShards:          transShards,
				LinkDelay:          0.2,
				LinkJitter:         0.05,
				LinkOutagePeriod:   period,
				LinkOutageDuration: period * darkPct / 100,
				MeasureAfter:       m / 5,
			})
			if err != nil {
				return nil, err
			}
			if darkPct == 0 {
				outBase[algo] = res.Throughput
			}
			drop := 0.0
			if b := outBase[algo]; b > 0 {
				drop = 100 * (1 - res.Throughput/b)
			}
			outage.Add(
				fmt.Sprintf("%.0f", darkPct),
				algo,
				fmt.Sprintf("%.0f", res.Throughput),
				fmt.Sprintf("%.1f", drop),
				fmt.Sprintf("%d", res.LinkRetransmits),
				fmt.Sprintf("%.0f", res.LinkOutageWaitMs),
				fmt.Sprintf("%.4f", res.AggReplication),
			)
		}
	}
	return []*texttab.Table{live, degraded, delay, outage}, nil
}

// sumCounter totals a counter series across all its label sets (the
// transport registers one series per link).
func sumCounter(reg *telemetry.Registry, name string) float64 {
	var total float64
	for _, met := range reg.Snapshot().Metrics {
		if met.Name == name {
			total += met.Value
		}
	}
	return total
}

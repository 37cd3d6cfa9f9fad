// Package soak drives long-running drifting-workload runs across every
// engine in the module — eventsim, the dspe engine over its in-memory
// links and (with Config.TCP) over the loopback TCP transport — while
// sampling each run's telemetry registry at a fixed wall-clock interval.
// It is the library behind cmd/slbsoak: the paper's cluster evaluation
// reports imbalance, throughput and latency CONTINUOUSLY over long
// skewed streams, and this harness is how the repo watches a live run
// instead of only end-of-run aggregates.
//
// A soak is a sequence of cycles; each cycle runs one leg per engine
// over a fresh workload.Drift stream (concept drift: the hot set
// rotates every epoch, stressing the partitioners' heavy-hitter
// tracking). While a leg runs, its registry is snapshotted every
// Interval and reduced to a Row — per-shard reducer utilization, queue
// depths, routing rates, the wire and fault ledgers — which streams to
// the configured sink as it happens. Each leg also emits a final
// drained row. Cycles repeat until Duration has elapsed and MinCycles
// cycles have completed, so a run is useful from seconds (CI smoke) to
// hours.
//
// The per-engine Summary rolls the whole soak up into the numbers the
// regression gate keys on. Gate checks that every leg completed what it
// planned, and compares the one deterministic throughput — eventsim's,
// measured in simulated time — against the accumulated trajectory of
// committed BENCH_soak artifacts (see Baselines) recorded under the
// SAME configuration string, the run metadata carried in each
// artifact's "meta" object. The dspe rows are wall-clock and host-
// dependent: recorded, never gated.
package soak

import (
	"fmt"
	"strconv"
	"time"

	"slb/internal/core"
	"slb/internal/dspe"
	"slb/internal/eventsim"
	"slb/internal/stream"
	"slb/internal/telemetry"
	"slb/internal/transport"
	"slb/internal/workload"
)

// Engine names, matching the telemetry "engine" label each run
// publishes.
const (
	EngineEventsim = "eventsim"
	EngineMemory   = "dspe-memory"
	EngineTCP      = "dspe-tcp"
)

// Engines lists every leg of one soak cycle, in execution order; the
// loopback TCP transport leg joins when Config.TCP is set.
var Engines = []string{EngineEventsim, EngineMemory}

// Config describes one soak run.
type Config struct {
	// Duration is the minimum wall-clock length of the soak; the
	// harness finishes the in-flight cycle after it elapses. 0 means
	// run exactly MinCycles cycles.
	Duration time.Duration
	// Interval is the telemetry sampling period within each engine
	// leg. 0 means 5s.
	Interval time.Duration
	// MinCycles floors the number of full engine cycles regardless of
	// Duration (each cycle emits at least one final row per engine).
	// 0 means 1.
	MinCycles int

	// Algorithm is the partitioner under soak (core.Names); "" means
	// W-C.
	Algorithm string
	// Workers, Sources and Shards shape every engine's topology.
	// Defaults: 8, 4, 4.
	Workers, Sources, Shards int
	// Messages is the stream length of each engine leg; 0 means
	// 200_000.
	Messages int64
	// Keys, Zipf, EpochLen and Stride parameterize the drifting
	// workload (workload.NewDrift). Defaults: 20_000 keys, z=1.2,
	// epoch Messages/8, stride 4096.
	Keys     int
	Zipf     float64
	EpochLen int64
	Stride   int
	// Seed seeds the workload and the partitioners; each cycle offsets
	// it so legs see fresh drift trajectories. 0 means 1.
	Seed uint64
	// ServiceTime is the dspe bolts' per-message cost (eventsim always
	// models 1 ms of simulated service). 0 means 20µs. Spin busy-waits
	// it instead of sleeping — faithful CPU saturation for long soaks
	// at the price of burning host CPU.
	ServiceTime time.Duration
	Spin        bool
	// AggWindow is the tumbling-window size of the two-phase
	// aggregation every leg runs; 0 means 512.
	AggWindow int64
	// TCP adds a third leg to every cycle: the dspe engine over the
	// loopback TCP transport (internal/transport framing and per-link
	// coalescing on every hop). It changes the configuration identity —
	// baselines recorded without the leg are not comparable.
	TCP bool
	// Faults puts the TCP leg's links under the deterministic chaos
	// schedule (frame drops plus periodic connection severs, seeded from
	// Seed+cycle), soaking the reconnect-and-resend machinery instead of
	// a clean wire. Implies TCP; changes the configuration identity.
	Faults bool

	// Emit receives every interval row as it is produced (single
	// goroutine, in order). nil discards rows.
	Emit func(Row)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.MinCycles <= 0 {
		c.MinCycles = 1
	}
	if c.Algorithm == "" {
		c.Algorithm = "W-C"
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Sources <= 0 {
		c.Sources = 4
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Messages <= 0 {
		c.Messages = 200_000
	}
	if c.Keys <= 0 {
		c.Keys = 20_000
	}
	if c.Zipf <= 0 {
		c.Zipf = 1.2
	}
	if c.EpochLen <= 0 {
		c.EpochLen = c.Messages / 8
		if c.EpochLen <= 0 {
			c.EpochLen = 1
		}
	}
	if c.Stride <= 0 {
		c.Stride = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = 20 * time.Microsecond
	}
	if c.AggWindow <= 0 {
		c.AggWindow = 512
	}
	if c.Faults {
		c.TCP = true
	}
	return c
}

// soakChaos is the fault schedule of a Faults soak's TCP leg: roughly
// one frame in 200 dropped and a sever every 4096 sender-side buffer
// writes — frequent enough that every leg rides through many
// reconnect-and-resend episodes, rare enough that throughput stays
// comparable across runs.
func soakChaos(seed uint64) *transport.ChaosConfig {
	return &transport.ChaosConfig{Seed: seed, DropOneIn: 200, SeverEvery: 4096}
}

// String renders the canonical configuration identity the regression
// gate keys baselines on: every knob that changes what the numbers
// mean, none that merely changes how long the soak runs.
func (c Config) String() string {
	c = c.withDefaults()
	s := fmt.Sprintf("algo=%s n=%d s=%d r=%d m=%d keys=%d z=%g epoch=%d stride=%d svc=%s win=%d",
		c.Algorithm, c.Workers, c.Sources, c.Shards, c.Messages, c.Keys,
		c.Zipf, c.EpochLen, c.Stride, c.ServiceTime, c.AggWindow)
	if c.Spin {
		s += " spin"
	}
	if c.TCP {
		s += " tcp"
	}
	if c.Faults {
		s += " faults"
	}
	return s
}

// engines returns the legs of one cycle under this configuration.
func (c Config) engines() []string {
	if c.TCP {
		return append(append([]string{}, Engines...), EngineTCP)
	}
	return Engines
}

// Row is one interval sample of a running engine leg, derived from a
// registry snapshot (and, for rates, its delta against the previous
// sample).
type Row struct {
	// T is seconds since the soak started (wall clock).
	T float64 `json:"t"`
	// Cycle and Engine identify the leg.
	Cycle  int    `json:"cycle"`
	Engine string `json:"engine"`
	Algo   string `json:"algo"`
	// Final marks the end-of-leg row, taken after the run drained.
	Final bool `json:"final"`
	// Completed is the leg's processed-message count so far.
	Completed int64 `json:"completed"`
	// RouteMsgs is the messages routed so far; RouteNsPerMsg the
	// cumulative mean routing cost (0 for eventsim, whose model does
	// not price routing time).
	RouteMsgs     int64   `json:"route_msgs"`
	RouteNsPerMsg float64 `json:"route_ns_per_msg,omitempty"`
	// QueueDepth sums the per-worker queue_depth gauges at sample
	// time: tuples delivered to the bolts' links and not yet received on
	// the dspe legs, queued messages in eventsim.
	QueueDepth float64 `json:"queue_depth"`
	// ReduceUtil is each reducer shard's busy fraction over the
	// sampling interval (over the whole leg for the final row).
	// eventsim legs measure both numerator and denominator in
	// simulated time.
	ReduceUtil []float64 `json:"reduce_util"`
	// ReduceOpenWindows sums the per-shard open-window gauges.
	ReduceOpenWindows float64 `json:"reduce_open_windows"`
	// TxBytes, BytesPerMsg, DictHits and DictResets are the transport
	// wire ledger (TCP leg only): cumulative transmitted bytes, bytes
	// per wire message, and the frame codec's cumulative dictionary
	// hits and epoch resets across the leg's links.
	TxBytes     int64   `json:"tx_bytes,omitempty"`
	BytesPerMsg float64 `json:"bytes_per_msg,omitempty"`
	DictHits    int64   `json:"dict_hits,omitempty"`
	DictResets  int64   `json:"dict_resets,omitempty"`
	// Reconnects, RetransmitFrames, RetransmitBytes, DupMsgs and
	// OutageSec are the transport fault ledger (TCP leg only):
	// cumulative reconnect episodes, frames and bytes retransmitted
	// after severs or drops, duplicate messages discarded at the receive
	// edge, and total time links spent disconnected. All stay 0 on a
	// clean wire; under Config.Faults they are the soak's evidence that
	// the recovery machinery ran.
	Reconnects       int64   `json:"reconnects,omitempty"`
	RetransmitFrames int64   `json:"retransmit_frames,omitempty"`
	RetransmitBytes  int64   `json:"retransmit_bytes,omitempty"`
	DupMsgs          int64   `json:"dup_msgs,omitempty"`
	OutageSec        float64 `json:"outage_sec,omitempty"`
}

// Summary rolls one engine's legs up across the whole soak.
type Summary struct {
	Engine string `json:"engine"`
	Legs   int    `json:"legs"`
	// Completed is the total processed messages across legs;
	// ElapsedSec the total processing time (wall clock for the dspe
	// legs, simulated seconds for eventsim) and Throughput their
	// ratio — deterministic for eventsim, host-dependent for dspe.
	Completed  int64   `json:"completed"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Throughput float64 `json:"throughput"`
	// RouteNsPerMsg is the cumulative mean routing cost (dspe legs).
	RouteNsPerMsg float64 `json:"route_ns_per_msg"`
	// ReduceUtilMean / ReduceUtilMax summarize the per-shard busy
	// fractions of the legs' final rows.
	ReduceUtilMean float64 `json:"reduce_util_mean"`
	ReduceUtilMax  float64 `json:"reduce_util_max"`
	// Rows is how many interval rows the engine emitted.
	Rows int `json:"rows"`
}

// Report is the outcome of one soak run.
type Report struct {
	Config    Config
	Cycles    int
	Rows      int
	Summaries []Summary
	// FinalSnapshots holds each engine's last leg's drained registry
	// snapshot, for export next to the BENCH artifacts.
	FinalSnapshots map[string]telemetry.Snapshot
}

// legResult carries one engine leg's outcome back to the sampler loop.
type legResult struct {
	completed int64
	err       error
}

// Run executes the soak and returns its report. Rows stream to
// cfg.Emit while the run progresses.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &Report{Config: cfg, FinalSnapshots: map[string]telemetry.Snapshot{}}
	engines := cfg.engines()
	acc := map[string]*Summary{}
	for _, e := range engines {
		acc[e] = &Summary{Engine: e}
	}

	for cycle := 0; ; cycle++ {
		for _, engine := range engines {
			if err := runLeg(cfg, engine, cycle, start, rep, acc[engine]); err != nil {
				return nil, fmt.Errorf("soak: cycle %d %s: %w", cycle, engine, err)
			}
		}
		rep.Cycles = cycle + 1
		if rep.Cycles >= cfg.MinCycles && time.Since(start) >= cfg.Duration {
			break
		}
	}

	for _, e := range engines {
		s := acc[e]
		if s.ElapsedSec > 0 {
			s.Throughput = float64(s.Completed) / s.ElapsedSec
		}
		if n := s.Legs * cfg.Shards; n > 0 {
			s.ReduceUtilMean /= float64(n)
		}
		rep.Summaries = append(rep.Summaries, *s)
		rep.Rows += s.Rows
	}
	return rep, nil
}

// runLeg runs one engine over a fresh drift stream, sampling its
// registry every cfg.Interval until the run drains.
func runLeg(cfg Config, engine string, cycle int, start time.Time, rep *Report, sum *Summary) error {
	reg := telemetry.NewRegistry()
	gen := workload.NewDrift(cfg.Zipf, cfg.Keys, cfg.Messages, cfg.EpochLen, cfg.Stride, cfg.Seed+uint64(cycle))
	legStart := time.Now()
	done := make(chan legResult, 1)
	go func() { done <- launch(cfg, engine, cycle, reg, gen) }()

	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()
	prev := sample{snap: reg.Snapshot(), wall: legStart}
	rows := 0
	for {
		select {
		case <-ticker.C:
			cur := sample{snap: reg.Snapshot(), wall: time.Now()}
			emit(cfg, rowFrom(cfg, engine, cycle, start, cur, prev, false))
			prev = cur
			rows++
		case res := <-done:
			if res.err != nil {
				return res.err
			}
			final := sample{snap: reg.Snapshot(), wall: time.Now()}
			// The final row covers the WHOLE leg: utilization over the
			// leg's elapsed time, totals rather than deltas.
			row := rowFrom(cfg, engine, cycle, start, final, sample{snap: telemetry.Snapshot{}, wall: legStart}, true)
			emit(cfg, row)
			rows++

			sum.Legs++
			sum.Rows += rows
			sum.Completed += res.completed
			sum.ElapsedSec += legElapsedSec(engine, final, legStart)
			sum.RouteNsPerMsg = cumulativeRouteNs(sum, final.snap)
			// ReduceUtilMean accumulates the per-shard sum here and is
			// normalized once, in Run, over Legs*Shards samples.
			for _, u := range row.ReduceUtil {
				sum.ReduceUtilMean += u
				if u > sum.ReduceUtilMax {
					sum.ReduceUtilMax = u
				}
			}
			rep.FinalSnapshots[engine] = final.snap
			return nil
		}
	}
}

// launch starts one engine run with its telemetry registry attached.
func launch(cfg Config, engine string, cycle int, reg *telemetry.Registry, gen stream.Generator) legResult {
	coreCfg := core.Config{Seed: cfg.Seed + uint64(cycle)}
	switch engine {
	case EngineEventsim:
		res, err := eventsim.Run(gen, eventsim.Config{
			Workers: cfg.Workers, Sources: cfg.Sources, Algorithm: cfg.Algorithm,
			Core: coreCfg, ServiceTime: 1.0,
			AggWindow: cfg.AggWindow, AggShards: cfg.Shards,
			Telemetry: reg,
		})
		return legResult{completed: res.Completed, err: err}
	case EngineMemory, EngineTCP:
		tr := dspe.TransportMemory
		var chaos *transport.ChaosConfig
		if engine == EngineTCP {
			tr = dspe.TransportTCP
			if cfg.Faults {
				chaos = soakChaos(cfg.Seed + uint64(cycle))
			}
		}
		res, err := dspe.Run(gen, dspe.Config{
			Workers: cfg.Workers, Sources: cfg.Sources, Algorithm: cfg.Algorithm,
			Core: coreCfg, ServiceTime: cfg.ServiceTime, Spin: cfg.Spin,
			Transport: tr, Chaos: chaos,
			AggWindow: cfg.AggWindow, AggShards: cfg.Shards,
			Telemetry: reg,
		})
		return legResult{completed: res.Completed, err: err}
	}
	return legResult{err: fmt.Errorf("unknown engine %q", engine)}
}

// sample pairs a snapshot with the wall-clock instant it was taken.
type sample struct {
	snap telemetry.Snapshot
	wall time.Time
}

func emit(cfg Config, r Row) {
	if cfg.Emit != nil {
		cfg.Emit(r)
	}
}

// rowFrom reduces a snapshot (and its delta against prev) to one
// interval row.
func rowFrom(cfg Config, engine string, cycle int, start time.Time, cur, prev sample, final bool) Row {
	row := Row{
		T:      time.Since(start).Seconds(),
		Cycle:  cycle,
		Engine: engine,
		Algo:   cfg.Algorithm,
		Final:  final,
	}
	row.Completed = int64(sumByName(cur.snap, "bolt_msgs_total") + sumByName(cur.snap, "sim_completed_total"))
	row.RouteMsgs = int64(sumByName(cur.snap, "route_msgs_total"))
	if ns := sumByName(cur.snap, "route_ns_total"); ns > 0 && row.RouteMsgs > 0 {
		row.RouteNsPerMsg = ns / float64(row.RouteMsgs)
	}
	row.QueueDepth = sumByName(cur.snap, "queue_depth")
	row.ReduceOpenWindows = sumByName(cur.snap, "reduce_open_windows")
	row.TxBytes = int64(sumByName(cur.snap, "transport_tx_bytes_total"))
	if msgs := sumByName(cur.snap, "transport_tx_msgs_total"); msgs > 0 {
		row.BytesPerMsg = float64(row.TxBytes) / msgs
	}
	row.DictHits = int64(sumByName(cur.snap, "transport_dict_hits_total"))
	row.DictResets = int64(sumByName(cur.snap, "transport_dict_resets_total"))
	row.Reconnects = int64(sumByName(cur.snap, "transport_reconnects_total"))
	row.RetransmitFrames = int64(sumByName(cur.snap, "transport_retransmit_frames_total"))
	row.RetransmitBytes = int64(sumByName(cur.snap, "transport_retransmit_bytes_total"))
	row.DupMsgs = int64(sumByName(cur.snap, "transport_dup_msgs_dropped_total"))
	row.OutageSec = sumByName(cur.snap, "transport_outage_seconds")

	// Per-shard utilization: busy-time delta over the interval's
	// denominator — wall time for the dspe legs, simulated time for
	// eventsim (both in ns, so the fraction is dimensionless).
	denom := float64(cur.wall.Sub(prev.wall).Nanoseconds())
	if engine == EngineEventsim {
		denom = sumByName(cur.snap, "sim_clock_ns") - sumByName(prev.snap, "sim_clock_ns")
	}
	row.ReduceUtil = make([]float64, cfg.Shards)
	for r := 0; r < cfg.Shards; r++ {
		busy := shardValue(cur.snap, "reduce_busy_ns_total", r) - shardValue(prev.snap, "reduce_busy_ns_total", r)
		if denom > 0 && busy > 0 {
			row.ReduceUtil[r] = busy / denom
		}
	}
	return row
}

// legElapsedSec is a leg's processing time in the engine's own clock:
// wall seconds for the dspe legs, simulated seconds for eventsim.
func legElapsedSec(engine string, final sample, legStart time.Time) float64 {
	if engine == EngineEventsim {
		return sumByName(final.snap, "sim_clock_ns") / 1e9
	}
	return final.wall.Sub(legStart).Seconds()
}

// cumulativeRouteNs folds one more leg's routing totals into the
// summary's cumulative ns/msg mean.
func cumulativeRouteNs(sum *Summary, snap telemetry.Snapshot) float64 {
	msgs := sumByName(snap, "route_msgs_total")
	ns := sumByName(snap, "route_ns_total")
	if msgs == 0 || ns == 0 {
		return sum.RouteNsPerMsg
	}
	// Weighted running mean across legs (legs have equal message
	// counts, so averaging the per-leg means is exact enough for the
	// gate's tolerance).
	if sum.RouteNsPerMsg == 0 {
		return ns / msgs
	}
	return (sum.RouteNsPerMsg*float64(sum.Legs-1) + ns/msgs) / float64(sum.Legs)
}

// sumByName totals every series of the snapshot with the given name.
func sumByName(snap telemetry.Snapshot, name string) float64 {
	var total float64
	for i := range snap.Metrics {
		if snap.Metrics[i].Name == name {
			total += snap.Metrics[i].Value
		}
	}
	return total
}

// shardValue returns the series' value for one reducer shard (0 when
// absent).
func shardValue(snap telemetry.Snapshot, name string, shard int) float64 {
	want := strconv.Itoa(shard)
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		if m.Name == name && m.Label("shard") == want {
			return m.Value
		}
	}
	return 0
}

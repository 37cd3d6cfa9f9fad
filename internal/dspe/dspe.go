// Package dspe is a miniature distributed stream processing engine in
// the style of Apache Storm, used for deployment-style (wall-clock)
// measurements of the partitioning algorithms. The topology mirrors the
// paper's cluster experiment: spout goroutines (sources) emit a keyed
// stream through a partitioner into bolt goroutines (workers), with an
// ack-based per-source in-flight window (max spout pending) and a fixed
// per-message processing cost at the workers.
//
// There is one engine, written against internal/transport: every
// spout→bolt and bolt→reducer hop is a named transport.Link, and
// Config.Transport picks the backend behind the links — per-edge SPSC
// rings in process (TransportMemory, the default) or loopback TCP
// connections through the columnar frame codec (TransportTCP). A full
// link is the backpressure (Storm's bounded executor queues). Nothing
// polls: every spout, bolt and reducer shard owns one ring.Parker,
// registered on each link it reads or sends on; a goroutine that
// finds no input, no ack-window room or no link space yields a few
// times and then parks, and the link — or the ack counter crossing the
// level the spout asked for — wakes it.
//
// The data plane is batched end to end: spouts draw key slabs from one
// stream.Source over the generator, route them in one RouteBatchDigests
// call, and send one message slab per destination bolt with one
// SendSlab per link, on either backend, so per-message link and
// scheduler overhead is amortized by Config.Batch.
//
// With Config.AggWindow set the topology becomes the two-phase windowed
// aggregation the paper's overhead analysis is about: bolts keep
// digest-keyed partial aggregates per tumbling window
// (internal/aggregation; the merge operator is pluggable via
// Config.AggMerger — count by default) and flush closed windows as
// batched partial slabs to a reduce stage of Config.AggShards parallel
// reducer goroutines, sharded by key digest (aggregation.ShardFor), so
// a key's partials always meet at one reducer. Partials travel with
// their worker identity: the reducers merge exactly what the bolts
// flushed and count state replication as they merge. Each shard closes
// its slice of every window on per-shard completeness (thresholds
// counted at the spouts as they route); finals fan back in through
// OnFinal. Result.Agg reports the measured aggregation traffic, merge
// work and reducer memory; Result.AggReducerUtil the busiest shard's
// merging fraction of the run (AggReducerUtilMean the average shard's).
//
// Tuples carry the KeyDigest routing computed (RouteBatchDigests), so a
// key's bytes are scanned exactly once per message end to end: the
// bolt-side partial tables and the reducer both operate on the carried
// digest. When the global emission sequence enters a new window, the
// announcing spout also puts a watermark tick at the head of the slab it
// sends EVERY bolt, so a bolt that happens to receive no traffic still
// flushes its closed windows —
// window-close latency depends on stream progress, not on which bolts
// the partitioner favors. The engine keeps no window clock of its own:
// aggregation.Driver.ObserveEmits, which each spout calls on every
// routed slab to count the thresholds, also says which spout announces
// a window (each window at most once).
//
// Control stays in-process by design: the in-flight window is an atomic
// counter per source and the completeness thresholds are counted at the
// spouts. The transport models the DATA hops — the paper's
// serialization/framing/link cost — not a distributed control protocol.
//
// Unlike internal/eventsim, results here depend on the host: use this
// engine to demonstrate the system end-to-end, and eventsim for
// reproducible numbers.
package dspe

import (
	"fmt"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/stream"
	"slb/internal/telemetry"
	"slb/internal/transport"
)

// Config describes one topology run.
type Config struct {
	// Workers is the number of bolt instances.
	Workers int
	// Sources is the number of spout instances.
	Sources int
	// Algorithm is the partitioner name (core.Names).
	Algorithm string
	// Core carries seed/θ/ε; Workers is filled in from this config.
	Core core.Config
	// ServiceTime is the simulated per-message processing cost at a bolt
	// (the paper uses 1 ms). Each bolt pays it once per data tuple, before
	// the tuple's latency stamp and its ack, on a service clock that owes
	// ServiceTime per tuple and waits only for what earlier waits have
	// not already paid, so a timer that returns late is credited rather
	// than charged again: after every tuple the bolt has paid at least
	// its tuples × ServiceTime, and paid − owed never exceeds one wait's
	// overshoot. Zero means no artificial delay, and the clock is never
	// read.
	ServiceTime time.Duration
	// Window is the per-spout in-flight cap (max spout pending); 0 means
	// 100, and over TransportTCP a window left at 0 grows adaptively (see
	// adaptiveWindow). It also sizes the spout→bolt links, at two windows
	// each, so a spout meets its ack window before it meets a full link.
	Window int
	// Batch is the spout emission slab size: keys drawn, routed and sent
	// per iteration, and the most a bolt receives from one link at a time.
	// 0 means 64; it is clamped to Window so a slab always fits the
	// in-flight window once acks drain.
	Batch int
	// Messages caps the emitted messages; 0 means the generator length.
	Messages int64
	// Spin selects busy-wait instead of time.Sleep for the service clock
	// of bolts (ServiceTime) and reducer shards (AggMergeCost): more
	// faithful CPU saturation and an overshoot of one clock read instead
	// of one timer slip, but it burns host CPU. The payment rule is the
	// same either way. Tests keep it off.
	Spin bool
	// AggWindow, when positive, turns the topology into a two-phase
	// windowed aggregation: every bolt keeps per-key partial aggregates
	// per tumbling window of AggWindow tuples (window ids stamped at the
	// spout from the global emission sequence) and flushes closed windows
	// as batched partial slabs to the reduce stage, which merges partials
	// by key digest and emits finals. Zero disables aggregation.
	AggWindow int64
	// AggShards is R, the number of parallel reducer goroutines the
	// reduce stage is sharded into by key digest (aggregation.ShardFor):
	// each shard owns the keys whose digests map to it, reads one link per
	// bolt, and closes its slice of every window on per-shard
	// completeness. 0 means 1 (a single reducer goroutine).
	AggShards int
	// AggMerger selects the merge operator applied per (window, key):
	// aggregation.CountMerger (the default, nil), SumMerger, MinMerger,
	// MaxMerger, DistinctMerger, or any custom Merger. Each message's
	// sample is the generator's recorded value, else 1 (the sampling
	// contract, documented on stream.Source; stream.WithValues derives
	// one).
	AggMerger aggregation.Merger
	// AggMergeCost, when positive, simulates a per-partial merge cost at
	// the reducer shards, so wall-clock runs can reproduce the
	// reducer-bound regime the discrete-event engine models with its
	// AggMergeCost — and show sharding move the saturation point. A shard
	// pays AggMergeCost × len(slab) once per merged slab, on the same
	// service clock as the bolts (ServiceTime): it waits, slept or spun
	// per Config.Spin, only for what earlier oversleep has not covered,
	// so paid ≥ owed after every slab and paid − owed never exceeds one
	// wait's overshoot. Zero adds no artificial cost and no clock read.
	AggMergeCost time.Duration
	// OnFinal, when set (and AggWindow > 0), receives every merged final
	// from the reduce stage, on a reducer shard's goroutine. Calls are
	// serialized across shards (when AggShards > 1, a mutex each shard
	// takes once per merged slab to hand over that slab's finals — see
	// finalFanIn), so the callback needs no locking of its own.
	OnFinal func(aggregation.Final)
	// Transport selects the backend behind every data hop (spout→bolt
	// tuples and bolt→shard partials): TransportMemory (the default)
	// gives each edge an in-process SPSC ring that SendSlab copies each
	// slab into; TransportTCP a loopback TCP connection with columnar
	// framing and write coalescing. Finals, loads and replication factors
	// are bit-equal across backends at Sources=1; only the wall-clock cost
	// differs. With TransportTCP and Telemetry set, per-link wire counters
	// (bytes, frames, flushes, stalls) land in the registry.
	Transport Transport
	// adaptiveWindow records that the caller left Window at its default:
	// over TransportTCP the engine then grows the per-spout ack window
	// adaptively (doubling on ack stalls up to adaptiveWindowMax) instead
	// of pinning it at 100, which over a kernel socket is ack-latency
	// bound. Explicitly set windows are always honored as-is.
	adaptiveWindow bool
	// Chaos, when non-nil, subjects the TCP links to the deterministic
	// fault schedule (transport.TCPConfig.Chaos) — dropped buffer writes
	// and severed connections — while the engine's results stay
	// bit-equal to a fault-free run: the links recover through reconnect
	// + retransmit + receive-edge dedup. Delivery timers are tightened
	// automatically so recovery is fast relative to the run. With
	// Telemetry set, each link's judged writes, drops and severs land in
	// the transport_chaos_* counters. The memory backend has no fault
	// model: Chaos with TransportMemory is an error.
	Chaos *transport.ChaosConfig
	// Telemetry, when non-nil, receives the run's live metric series:
	// per-spout routing activity (core.RouteRecorder), ack-window waits
	// and parks, per-bolt queue depths, input stalls and processed
	// counts, bolt-side partial flushes, and per-shard reducer busy time
	// and occupancy gauges. Series names and labels are listed in
	// internal/dspe/telemetry.go and the slb package doc (§ Telemetry).
	// All hooks are per-slab or snapshot-time; nil adds no work at all.
	Telemetry *telemetry.Registry
}

// Transport names a link backend; see Config.Transport.
type Transport int

const (
	// TransportMemory runs every data hop over internal/transport's
	// ring-backed in-memory backend.
	TransportMemory Transport = iota
	// TransportTCP runs every data hop over loopback TCP connections
	// with columnar frames and write coalescing.
	TransportTCP
)

func (c Config) withDefaults() (Config, error) {
	if c.Workers <= 0 || c.Sources <= 0 {
		return c, fmt.Errorf("dspe: Workers and Sources must be positive")
	}
	if c.Window <= 0 {
		c.Window = 100
		c.adaptiveWindow = true
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Batch > c.Window {
		c.Batch = c.Window
	}
	if c.AggShards <= 0 {
		c.AggShards = 1
	}
	c.Core.Workers = c.Workers
	return c, nil
}

// Result reports wall-clock performance of a topology run.
type Result struct {
	Algorithm string
	Completed int64
	// Elapsed is the wall clock from the first spout's start to the last
	// goroutine's join: with aggregation on that is the last reducer
	// shard's, so a message counts as done when it is acked AND counted in
	// an emitted final — bolts finishing ahead of a backlogged reduce
	// stage do not stop the clock. It is also the denominator of the
	// AggReducerUtil fractions.
	Elapsed time.Duration
	// Throughput is completed messages per second of Elapsed.
	Throughput float64
	// MaxAvgLatency is the maximum per-bolt mean latency.
	MaxAvgLatency time.Duration
	// P50/P95/P99 are latency percentiles over one tuple in eight: the
	// interval from spout emit to the end of the tuple's paid service at
	// its bolt (Config.ServiceTime on the bolt's service clock), stamped
	// before the ack. 0 when no tuple was sampled.
	P50, P95, P99 time.Duration
	// Loads is the per-bolt processed-tuple count.
	Loads []int64
	// Imbalance is the paper's I(m) over the run.
	Imbalance float64
	// Agg reports the reducer-side aggregation cost (zero unless
	// Config.AggWindow was set): partial traffic, merge work and memory
	// high-water marks.
	Agg aggregation.ReducerStats
	// AggReplication is the measured state replication factor: distinct
	// (window, key, worker) triples per distinct (window, key) pair,
	// counted exactly (aggregation.Driver: a worker bitset per reducer
	// entry). 1 for KG by construction; up to Workers for W-Choices hot
	// keys. 0 when aggregation is off.
	AggReplication float64
	// AggReducerUtil is the fraction of the run's wall clock the BUSIEST
	// reducer shard's goroutine spent merging partial slabs: the reduce
	// stage's bottleneck utilization (0 when aggregation is off). Near 1
	// means that shard — and with it the stage — is the bottleneck;
	// sharding (Config.AggShards) spreads the load and moves it down.
	AggReducerUtil float64
	// AggReducerUtilMean is the mean merging fraction across the reducer
	// shards (equal to AggReducerUtil when AggShards == 1).
	AggReducerUtilMean float64
	// AggTotal is the sum of all final counts; with aggregation enabled
	// it must equal Completed (every processed tuple is counted exactly
	// once — window close is exact, not approximate).
	AggTotal int64
	// AggBoltPartials is the number of partials the bolts flushed: the
	// worker-side aggregation output, counted at the bolts. Nothing
	// pre-merges partials between bolt and reducer, so it always equals
	// Agg.Partials, which the reducers count as they merge.
	AggBoltPartials int64
	// servicePaid is each bolt's service clock reading at the end of the
	// run: the measured time it spent paying ServiceTime.
	servicePaid []time.Duration
}

// boltStats is written only by the owning bolt goroutine.
type boltStats struct {
	lat   *telemetry.Histogram
	count int64
	sum   time.Duration
}

// Run executes the topology until the stream is exhausted and fully
// acked, then reports aggregate metrics.
func Run(gen stream.Generator, cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	parts := make([]core.Partitioner, cfg.Sources)
	for i := range parts {
		srcCfg := cfg.Core
		srcCfg.Instance = i
		p, err := core.New(cfg.Algorithm, srcCfg)
		if err != nil {
			return Result{}, err
		}
		parts[i] = p
	}

	src := stream.NewSource(gen, cfg.Messages)
	fabric, err := openFabric(cfg)
	if err != nil {
		return Result{}, err
	}
	defer fabric.Close()
	res, err := runOnFabric(fabric, src, cfg, parts)
	gen.Reset()
	return res, err
}

// poolLatency adds the per-bolt latency histograms into one: a bolt
// that processed 100× the tuples contributes 100× the mass.
func poolLatency(stats []boltStats) *telemetry.Histogram {
	pooled := telemetry.NewHistogram()
	for w := range stats {
		pooled.Merge(stats[w].lat)
	}
	return pooled
}

// serviceClock is one goroutine's simulated-cost ledger: a bolt pays
// Config.ServiceTime per data tuple, a reducer shard AggMergeCost per
// merged partial. pay(d) adds d to owed and waits only while owed is
// ahead of paid, for the difference, crediting the wait's measured
// duration to paid. A timer returns late (on a 2-vCPU Linux VM a 1 ms
// sleep took about 1.14 ms and a 100 µs sleep about 1 ms), so a bare
// sleep per tuple would charge service plus oversleep; the clock lets
// that overshoot cover the next payments instead. Hence paid ≥ owed
// after every pay, and paid − owed never exceeds one wait's overshoot:
// the goroutine serves the cost it is configured for, never less, and
// never more than one timer slip ahead.
type serviceClock struct {
	owed, paid time.Duration
	// wait blocks for at least d and returns the measured duration.
	wait func(d time.Duration) time.Duration
}

// newServiceClock returns a clock whose waits sleep, or busy-wait when
// spin is set (Config.Spin).
func newServiceClock(spin bool) serviceClock {
	return serviceClock{wait: func(d time.Duration) time.Duration {
		t0 := time.Now()
		if !spin {
			time.Sleep(d)
		}
		for {
			if e := time.Since(t0); e >= d {
				return e
			}
		}
	}}
}

// pay charges d of simulated service.
func (c *serviceClock) pay(d time.Duration) {
	c.owed += d
	if c.owed > c.paid {
		c.paid += c.wait(c.owed - c.paid)
	}
}

// Package slb is a Go implementation of the load-balancing stream
// partitioners from "When Two Choices Are not Enough: Balancing at Scale
// in Distributed Stream Processing" (Nasir, De Francisci Morales,
// Kourtellis, Serafini — ICDE 2016), together with the substrates needed
// to reproduce the paper end to end: the SpaceSaving heavy-hitter
// sketch, skewed workload generators, a multi-source partitioning
// simulator, and two DSPE engines (a deterministic discrete-event
// queueing simulator and a concurrent goroutine runtime).
//
// # The algorithms
//
// A stream of keyed messages is partitioned from sources to n workers.
//
//   - KG (key grouping) hashes each key to one worker; a skewed key
//     distribution overloads whoever owns the hottest key.
//   - SG (shuffle grouping) round-robins messages: perfectly balanced
//     but every worker may hold state for every key.
//   - PKG (partial key grouping) gives each key two candidate workers
//     and routes to the less loaded — enough only while p1 ≤ 2/n.
//   - D-Choices and W-Choices — this paper's contribution — detect the
//     hot keys online with a SpaceSaving sketch and give only those keys
//     more than two choices: D-Choices the minimal d from an analytic
//     feasibility bound (Proposition 4.1), W-Choices all n workers. Both
//     are one Greedy-d scheme: W-Choices is D-Choices with d pinned at
//     n, so New("W-C") builds the same type as New("D-C").
//
// # Quick start
//
// The hot path is batched end to end: draw a slab of keys from a
// generator and route it in one call. Every message is hashed exactly
// once into a 64-bit KeyDigest — at the source, when routing — and that
// digest then follows the message through its whole life: candidate
// workers, the heavy-hitter sketch, both engines' tuples, the windowed
// aggregation tables and the reducer's merges all operate on the
// carried digest (source → route → aggregate → reduce), never
// re-scanning the key bytes.
//
//	cfg := slb.Config{Workers: 50, Seed: 42}
//	p, _ := slb.New("D-C", cfg)
//	gen := slb.NewZipfStream(2.0, 100_000, 1_000_000, 42)
//
//	keys := make([]string, 512)
//	digs := make([]slb.KeyDigest, 512)
//	dst := make([]int, 512)
//	for {
//		n := slb.NextBatch(gen, keys)
//		if n == 0 {
//			break
//		}
//		slb.RouteBatchDigests(p, keys[:n], digs, dst)
//		// dst[i] is the worker for keys[i], digs[i] its digest
//	}
//
// A single tuple is a slab of one: keys[:1], digs[:1], dst[:1].
//
// Every algorithm writes its routing once, as a body that routes a run
// of consecutive messages of one key, and RouteBatchDigests is the one
// call into it: slab boundaries never change a decision, and a slab
// only amortizes the per-key work over its runs. Steady-state routing
// allocates nothing for every algorithm at any slab size — D-Choices'
// periodic d-solver included, which re-solves every Config.SolveEvery
// messages over a partitioner-owned head snapshot and memoised
// constraint tables (the sliding-window sketch mode,
// Config.SketchWindow, is the exception: its two-generation head merge
// allocates per solve).
//
// The digests the router computed land in the caller's slab, so
// aggregation and re-keying downstream reuse them rather than paying a
// second key scan.
//
// Each Partitioner instance embodies one sender: load estimates are
// sender-local (no coordination), exactly as in the paper. To compare
// algorithms under identical streams, use Simulate with a deterministic
// Generator from NewZipfStream or NewDriftStream.
//
// # Two-phase aggregation
//
// Key splitting buys balance at the price of an aggregation phase:
// when a key's messages land on d workers, each holds only a partial
// aggregate and a reduce stage must merge the d partials per window.
// Both engines model this end to end — set EngineConfig.AggWindow
// (goroutine runtime) or ClusterConfig.AggWindow (deterministic event
// simulation) and read the measured cost from Result.Agg: partial
// traffic, merge work, reducer memory, and the exact replication
// factor (1 for KG, up to n for W-Choices). Partials merge across
// workers by the CARRIED KeyDigest: routing digests each key once at
// the source, the engines' tuples and flushed partials transport that
// digest, and the reduce stage merges by it — no layer re-hashes (see
// internal/aggregation).
//
// WHAT is merged per (window, key) is pluggable: the Merger operator
// (CountMerger by default; SumMerger, MinMerger, MaxMerger and the
// approximate-distinct DistinctMerger built in, custom operators
// welcome) rides inside the partial tables as a fixed 128-bit state,
// so non-count aggregations keep the zero-allocation steady state.
// Select it with AggMerger on either engine. Each message's merged
// sample is its generator's recorded value — a version-2 trace replay,
// or a stream wrapped by WithValues — else 1 (the sampling contract);
// message COUNTS are tracked alongside regardless, because they drive
// the completeness-based window close.
//
// The reduce stage itself is sharded and modeled, not free
// bookkeeping. AggShards (both engines) splits it into R independent
// reducer stations keyed by the carried digest (a key's partials
// always meet at exactly one shard), and each shard closes its slice
// of a window the instant it has merged every message the sources
// emitted into it — per-shard thresholds are counted at routing time,
// so duplicates and late corrections remain structurally impossible.
// One type, aggregation.Driver, owns this window lifecycle for both
// engines: it counts the thresholds, announces each window the stream
// enters (the watermark tick that lets starved workers flush), closes
// the slices and totals the finals.
// In the discrete-event engine each merged partial costs
// ClusterConfig.AggMergeCost of its shard's service through a bounded
// per-shard queue whose backpressure stalls flushing workers: a
// saturated reduce stage degrades end-to-end throughput exactly as a
// hot worker does, and adding shards moves the saturation point
// (stage capacity = AggShards/AggMergeCost partials per ms).
// ClusterResult.ReducerUtil reports the busiest shard's utilization
// (ReducerUtilMean the average — near-1 max at R=1 is the regime where
// W-Choices' extra partials outweigh its balance gain), and
// EngineResult.AggReducerUtil / AggReducerUtilMean are the goroutine
// runtime's wall-clock equivalents, with EngineConfig.AggMergeCost
// available to reproduce the reducer-bound regime in wall-clock runs.
//
// # The goroutine engine: one engine, two backends
//
// The goroutine runtime executes one topology — spouts route a keyed
// stream into bolts, bolts flush windowed partials toward R reducer
// shards — written once against internal/transport: every spout→bolt
// and bolt→shard hop is a named link with explicit flush/drain
// semantics (Sender.SendSlab/Flush/Close on the write side,
// non-blocking Link.RecvSlab on the read side), and
// EngineConfig.Transport picks what is behind the links. Nothing
// polls: each spout, bolt and reducer goroutine owns one wait
// primitive registered on the links it reads or fills, yields a few
// times when it finds no input, no ack-window room or no link space,
// then parks until the link (or an ack) wakes it — an idle topology
// costs no CPU. Bolt partials reach the reducers with their worker
// identity, so the reduce stage merges exactly what the bolts flushed
// (EngineResult.AggBoltPartials == Agg.Partials) and counts state
// replication as a by-product of the merge. There is no combiner in
// front of the shard hop, by measurement: the benchmark's shadow span
// prices one at aggregation.combine_ns_per_msg 84 to remove 7% of
// partials on its high-cardinality workload and 8 to remove 16% on its
// skewed one, against a whole reduce stage of 64 and 9 ns per message
// (aggregation.reduce_ns_per_msg); AggShards is the answer to a
// reducer-bound stage. This source → worker → reduce shape is the only
// topology the runtime has, as it is the only one the paper evaluates;
// examples/trending runs a key-mapping source and a weighted Sum on it.
//
// # Transport
//
// Two backends ship behind the links:
//
//   - TransportMemory (the default) gives every edge its own lock-free
//     single-producer/single-consumer ring (internal/ring —
//     power-of-two capacity, cache-line-padded cursors, batched
//     Grant/Publish and Acquire/Release windows). The ring slots ARE
//     the tuple arena: the spout stages one reused slab per worker and
//     SendSlab copies it into the ring, no slab is allocated, and the
//     zero-allocation steady state extends from routing to the whole
//     spout→bolt→reducer path. Acks are one padded atomic in-flight
//     counter per source.
//   - TransportTCP moves every edge over a real socket (loopback in
//     the tests and benchmarks) speaking wire format v2: COLUMNAR
//     length-prefixed frames (per-field columns with varint/zigzag
//     coding, delta-coded windows, elided all-zero and uniform
//     columns, a sparse emit column) over a PERSISTENT per-link key
//     dictionary — a hot key's bytes and digest cross the wire once
//     per dictionary epoch, and every later occurrence is a 1-2 byte
//     reference (≈2-4 B per steady-state message; epoch resets bound
//     the dictionary at 32k entries and a frame-carried epoch counter
//     turns any desynchronization into a hard decode error). The
//     sender is pipelined: the caller's goroutine encodes into ~32 KB
//     coalescing buffers while a writer goroutine drives the kernel
//     with vectored writes, and it is self-clocked: a buffer goes to
//     the writer once full, or as soon as the writer has caught up
//     while at least half the resend pool is free, so an idle link
//     sends at once and a busy one coalesces. The receive side
//     decodes through a per-link key arena into an SPSC ring with zero
//     steady-state allocations (hard-asserted). Per-link telemetry
//     counters cover both directions and the dictionary
//     (transport_tx_bytes_total, transport_rx_bytes_total,
//     transport_tx_msgs_total, transport_frames_total,
//     transport_flushes_total, transport_send_stalls_total,
//     transport_dict_hits_total, transport_dict_resets_total, labeled
//     link=). Spouts flush
//     lazily — only when the in-flight ack window is about to block —
//     and when EngineConfig.Window is left at its default the TCP
//     backend's spouts grow their ack window adaptively (doubling on
//     ack stalls up to 8192, published as spout_ack_window) instead
//     of staying ack-latency bound at 100.
//
// The TCP backend is fault-tolerant: a link survives its connection
// dying at ANY byte boundary with exactness intact. Every coalescing
// buffer carries a sequence number and the receiver streams back
// cumulative acks; the sender retains a bounded window of unacked
// buffers (16 per link) and, when a connection dies — a
// write error, a receiver-detected sequence gap, or an ack timeout
// (TCPConfig.ResendTimeout) — redials under jittered exponential
// backoff (TCPConfig.RedialBackoff/RedialAttempts, episodes capped by
// TCPConfig.MaxReconnects), resets the frame codec's dictionary epoch
// (the documented resync point: a fresh connection always starts a
// fresh epoch, so mid-epoch loss can never desynchronize the
// dictionaries), and replays from the receiver's high-water mark. Each
// accepted connection opens with a resync handshake — the receiver
// acks its current mark before any data flows, the sender applies it
// before retransmitting — so delivery is at-least-once on the wire and
// exactly-once observable: the receiver's persistent sequence state
// discards duplicate frames at the receive edge, and finals,
// replication factors and completed counts stay bit-equal to a
// fault-free run (pinned by dspe's fault-parity tests with every link
// severed and ≥1% of frames dropped). With reconnection disabled
// (MaxReconnects < 0) a lost connection is a hard per-link error —
// never silent loss. TCPConfig.Chaos puts the TCP links under a
// deterministic fault schedule (ChaosConfig: seeded frame drops and
// periodic connection severs; EngineConfig.Chaos, which
// the memory backend rejects) and counts each link's judged writes,
// drops and severs (transport_chaos_writes_total,
// transport_chaos_drops_total, transport_chaos_severs_total); the
// recovery machinery publishes its own counters
// (transport_reconnects_total,
// transport_retransmit_frames_total, transport_retransmit_bytes_total,
// transport_dup_msgs_dropped_total, transport_outage_seconds), which
// the soak harness carries as JSONL fields and the transport
// experiment tabulates. The fault-free bill for all of this —
// sequencing, buffer retention, ack tracking — is within ~5% of the
// pre-fault-tolerance link throughput; the benchmark (bench/) tracks
// the link's cost as transport.tcp_link_ns_per_msg.
//
// Everything observable — finals, per-worker loads, replication
// factors — is bit-identical across TransportMemory and TransportTCP
// at Sources = 1, and TCP's stay so under chaos: dspe's parity tests
// hold both to a single-threaded oracle. The
// deterministic engine prices the same hop analytically:
// ClusterConfig.LinkDelay (with LinkJitter and the rare LinkSlowOneIn
// slow path, which costs ten times LinkDelay + LinkJitter; all
// hash-derived and bit-reproducible) charges each flushed partial a
// worker→reducer link delay, so an algorithm's sensitivity to wire
// latency scales with its replication factor — at 2 ms, W-Choices
// loses ≈1.6x where KG loses ≈1.05x.
// ClusterConfig.LinkOutagePeriod/LinkOutageDuration
// add periodic per-link outage windows (staggered by a hash-derived
// phase): a partial arriving while its link is dark is lost and
// retransmitted on recovery, charged as a deferred arrival in the
// closed-form recurrence and reported as
// ClusterResult.LinkRetransmits/LinkOutageWaitMs — the analytic
// analogue of the live chaos schedule. The `transport` experiment
// (cmd/slbstorm) sweeps all of it: throughput per backend with the TCP
// wire ledger, degraded-link throughput and retransmission cost per
// algorithm under chaos, and the per-algorithm delay and outage
// sensitivity.
//
// # Telemetry
//
// Every engine can publish its live metric series into a label-aware
// registry (internal/telemetry): pass a telemetry.NewRegistry() as
// EngineConfig.Telemetry or ClusterConfig.Telemetry and read it with
// Registry.Snapshot() — safe concurrently with the run — or the
// snapshot's WriteText/WriteJSON renderings. Series are identified by
// name plus labels; every series carries engine=<name> and
// algo=<algorithm>, with per-instance labels (spout=, worker=, shard=)
// where the source is per-goroutine. Counters are monotonic over a
// run; Snapshot.Delta(prev) turns two snapshots into interval rates.
// Results are bit-identical with and without a registry attached —
// instrumentation rides the existing batch boundaries (the routing hot
// path keeps its zero-allocation steady state;
// BenchmarkRouteBatchDigestsInstrumented asserts it).
//
// Latency has one instrument, telemetry.Histogram: a fixed log grid of
// 128 buckets per octave from 1 ns to about 2.4 h, so a percentile is
// within 2⁻⁷ relative of the exact nearest-rank value, with the exact
// count, minimum and maximum kept alongside. Each goroutine-runtime
// bolt records its sampled tuples (one in eight) into its own; the
// interval is from spout emit to the end of the tuple's paid service at
// its bolt (EngineConfig.ServiceTime, paid net of earlier timer
// oversleep), taken before the tuple is acked. The discrete-event
// engine records every measured completion (emit to service end) into
// one, and the engines pool them by adding buckets at the end of a run
// to report P50/P95/P99 (0 when nothing was measured). The histograms
// are run-local: a registry carries no latency series.
//
// The goroutine runtime (engine=dspe-memory / engine=dspe-tcp)
// publishes per spout route_msgs_total, route_ns_total,
// route_batches_total, spout_ack_wait_ns_total, spout_ack_window and
// spout_parks_total, and with them the partitioner's own ledger
// (core.RouteRecorder, deltas of core.RouteStats once per routed
// batch): route_head_msgs_total; route_tree_argmins_total and
// route_scan_argmins_total (whether the floor index — an argmin over all
// n workers — or a head key's candidate list served each head message);
// route_cand_cache_hits_total / route_cand_cache_misses_total
// (D-Choices' candidate lists, one lookup per head run);
// sketch_entries, sketch_capacity and sketch_evictions_total; and the
// solver's state — solver_runs_total, solver_head_size (|H| at the last
// FINDOPTIMALCHOICES run) and solver_d (W-Choices, whose d is pinned,
// reads n there and runs no solve). Per worker a queue_depth gauge
// (tuples delivered to the bolt's links and not yet received) plus
// bolt_msgs_total, acquire_stall_ns_total and bolt_parks_total;
// bolt_partials_total;
// and per reducer shard shard_parks_total, reduce_partials_total,
// reduce_busy_ns_total, the reduce_open_windows /
// reduce_live_entries occupancy gauges and the reduce_replication
// gauge. The discrete-event engine (engine=eventsim)
// publishes the same routing series plus sim_emitted_total,
// sim_completed_total, sim_clock_ns, per-worker queue_depth and
// sim_peak_queue, flush_stall_ns_total, and the per-shard reducer
// series — every duration measured in SIMULATED nanoseconds, so
// interval rates are deterministic. The full series inventory lives in
// internal/dspe/telemetry.go and internal/eventsim/telemetry.go.
//
// cmd/slbsoak drives all of this as a soak harness: drifting workloads
// (NewDriftStream) cycled across eventsim, the goroutine engine over
// its memory links and (with -tcp, default under -short) over the
// loopback TCP transport for minutes to hours, each leg's registry
// sampled on an interval into JSONL rows (per-shard reducer
// utilization, queue depths, routing rates, the wire and fault
// ledgers), a per-engine summary written as a BENCH_soak JSON artifact
// carrying its configuration string in "meta", and — given -baseline —
// a nonzero exit when a leg completed fewer messages than it planned
// or the deterministic eventsim row regresses against the best
// matching baseline in the accumulated trajectory; the wall-clock
// rows are recorded, never gated (see ci/BENCH_soak_baseline.json).
//
// # Balancing at scale
//
// The paper's title regime — hundreds to tens of thousands of workers —
// is fully supported. Worker counts are unbounded, and the head-aware
// schemes' argmin over worker loads is one LOAD INDEX at every n: loads
// are the sender's own message counts and each change adds one, so the
// least-loaded worker is always the lowest set bit of the bitmap of
// workers at the minimum load, and a floor index of per-level bitmaps
// answers it in O(1) and absorbs each increment in O(1), with
// tie-breaking bit-exact to a first-lowest-wins scan — so W-Choices
// head routing stays flat in n: route-scale's W-C cells at z = 2.0 cost
// 49.5 cpu-ns per message at n = 64 and 46.6 at n = 4096 (medians of
// ten runs on a 2-vCPU host; see also BenchmarkRouteAtScale and the
// `scale` experiment's routing table).
//
// D-Choices at scale has two regimes, and the route-scale benchmark
// (bench/) measures both at n = 4096 over 100k keys. At z = 0.8 the head
// is thousands of keys (|H| ≈ 2.8k at θ = 1/(5n)) with a modest d ≈ 91,
// and the cost is FINDOPTIMALCHOICES itself and the candidate lists: the
// solver reads counts straight off the sketch's buckets and keeps the
// data-independent half of Proposition 4.1's constraints — b_h and
// (b_h/n)^d — per recently used d (analysis.Solver), so a re-solve is
// |H| multiply-adds and allocates nothing. A table for a new d costs no
// math.Pow per entry: b_h follows from b_{h−1} by one multiply and
// (b_h/n)^d is binary powering, and a prefix whose margin falls inside
// the recurrence's error bound is re-evaluated exactly, so every solved
// d is unchanged. The set-associative candidate cache reserves d, not
// n, workers per entry, so its 4 MiB hold the whole head, and one
// derivation serves a window of d that widens with d — 4 values at the
// paper's scales, 64 once d is in the thousands (deduplicated candidate
// lists for smaller d are prefixes of larger ones, so the solver's
// wobble re-derives nothing). At z = 2.0 a hundred head keys get
// d ≈ 2.5k — ≈ 1.9k distinct candidates each — and the cost is the
// argmin per head message. Each cache entry carries the key's level
// cursor: where the first-lowest scan of its list stopped and at which
// load (internal/core/loadtree.go). Loads only rise, so the next message
// resumes there, and on near-level loads the cursor sweeps the list
// about once per level its candidates climb instead of once per message.
// route-scale msgs/s per cell, medians of ten alternated 20 s pairs on a
// 2-vCPU host, with candidate tournaments and a hot-key memo before →
// with the cursor: D-C.n64.z2.0 6.0M → 11.3M, D-C.n4096.z2.0
// 2.4M → 5.1M, D-C.n4096.z0.8 1.67M → 1.81M (p99 per 256-message call
// 1.04 → 0.37 ms, the solver's tables); D-C.n64.z0.8, PKG and W-C flat.
// Every routed worker and every solved d is bit-identical to
// Algorithm 1 run plainly, one message at a time
// (TestDChoicesMatchesReference). D-C still switches to the W-C strategy
// at d ≥ n, as the paper prescribes. Past the cache's budget — n = 16384
// at the default θ, a head of ≈ 11k keys at d ≈ 350 — derivations
// dominate again (≈ 2 µs per message, BenchmarkRouteAtScale's
// D-C/default cells). All of this preserves the zero-allocation steady
// state.
//
// The `scale` experiment (cmd/slbstorm) reproduces the large-deployment
// story end to end at n ∈ {16 … 16384} × {KG, PKG, D-C, W-C, SG}:
// routing ns/msg per scheme, imbalance at scale (PKG grows with n —
// e.g. 4.0e-6 → 1.9e-2 at z = 0.8 — while D-C/W-C hold ≈1e-5), and
// discrete-event throughput (PKG plateaus at its two hot-key workers'
// drain rate from n = 64 on, D-C/W-C keep the offered rate at every n).
// CI emits these tables per run as BENCH_*.json artifacts.
package slb

import (
	"slb/internal/aggregation"
	"slb/internal/analysis"
	"slb/internal/core"
	"slb/internal/dspe"
	"slb/internal/eventsim"
	"slb/internal/simulator"
	"slb/internal/stream"
	"slb/internal/workload"
)

// Partitioner routes each message of a keyed stream to one of n
// workers, a slab at a time (RouteBatchDigests); a slab of one is a
// single message, and slab boundaries never change a decision.
type Partitioner = core.Partitioner

// KeyDigest is the canonical 64-bit digest of a key: every message is
// hashed once, at the source, and all later layers (candidate choice,
// sketches, engines, aggregation tables) identify keys by that carried
// digest. Same digest → same candidates, on every sender.
type KeyDigest = core.KeyDigest

// DigestKey returns the canonical digest of a key (one scan of its
// bytes).
func DigestKey(key string) KeyDigest { return core.Digest(key) }

// RouteBatchDigests routes keys[i] to dst[i] through p and fills
// digs[i] with DigestKey(keys[i]) — the digest routing itself computed,
// handed to the caller so aggregation and re-keying downstream reuse it
// instead of scanning the key bytes again (the hash-once lifecycle:
// source → route → aggregate → reduce). digs and dst must be at least
// as long as keys.
func RouteBatchDigests(p Partitioner, keys []string, digs []KeyDigest, dst []int) {
	p.RouteBatchDigests(keys, digs, dst)
}

// Config carries the partitioner parameters (Table III of the paper):
// worker count, hash seed, head threshold θ (default 1/(5n)), solver
// tolerance ε (default 1e-4), sketch capacity and solve cadence. Each
// of them changes routing; how the argmin is computed is not a setting.
type Config = core.Config

// Algorithms lists the paper's algorithm symbols in presentation order:
// KG, SG, PKG, D-C, W-C, RR.
var Algorithms = core.Names

// New constructs a partitioner by its paper symbol (see Algorithms).
func New(name string, cfg Config) (Partitioner, error) { return core.New(name, cfg) }

// ---------------------------------------------------------------------------
// Streams and workloads

// Generator produces a finite, deterministic key stream, a slab at a
// time (NextBatch); the sequence does not depend on the slab sizes
// asked for.
type Generator = stream.Generator

// NextBatch pulls up to len(dst) keys from gen and returns the count;
// 0 means exhausted. It is gen.NextBatch(dst).
func NextBatch(gen Generator, dst []string) int { return gen.NextBatch(dst) }

// Stats summarizes a stream (Table I columns: messages, keys, p1).
type Stats = stream.Stats

// CollectStats measures a generator's exact statistics.
func CollectStats(gen Generator) Stats { return stream.Collect(gen) }

// WithValues wraps gen so each message carries the sample fn(key, seq),
// seq its 0-based position in the stream: the one way to give the
// engines' AggMerger a sample other than a recorded trace's values or
// the constant 1.
func WithValues(gen Generator, fn func(key string, seq int64) int64) Generator {
	return stream.WithValues(gen, fn)
}

// NewZipfStream returns a Zipf-distributed stream: exponent z over
// `keys` distinct keys, `messages` total, deterministic in seed. Any
// z ≥ 0 is supported (z = 0 is uniform).
func NewZipfStream(z float64, keys int, messages int64, seed uint64) Generator {
	return workload.NewZipf(z, keys, messages, seed)
}

// NewDriftStream returns a stream whose hot keys rotate every epochLen
// messages (concept drift, like the paper's cashtag dataset).
func NewDriftStream(z float64, keys int, messages, epochLen int64, stride int, seed uint64) Generator {
	return workload.NewDrift(z, keys, messages, epochLen, stride, seed)
}

// ---------------------------------------------------------------------------
// Simulation

// SimOptions configures a Simulate run (sources, snapshots, replica
// tracking, head/tail split, distributed sketch merging).
type SimOptions = simulator.Options

// SimResult is the outcome of a Simulate run: final imbalance I(m),
// optional time series, per-worker loads, measured memory.
type SimResult = simulator.Result

// Simulate partitions gen across workers through per-source instances
// of the named algorithm and measures load imbalance, exactly like the
// paper's simulator.
func Simulate(gen Generator, algorithm string, cfg Config, opts SimOptions) (SimResult, error) {
	return simulator.Run(gen, algorithm, cfg, opts)
}

// ---------------------------------------------------------------------------
// Engines

// ClusterConfig configures the deterministic discrete-event cluster
// simulation (the stand-in for the paper's Storm deployment).
type ClusterConfig = eventsim.Config

// ClusterResult reports simulated throughput, latency percentiles and
// load imbalance.
type ClusterResult = eventsim.Result

// SimulateCluster runs the discrete-event DSPE: FIFO workers with fixed
// service time, closed-loop sources with an in-flight window.
func SimulateCluster(gen Generator, cfg ClusterConfig) (ClusterResult, error) {
	return eventsim.Run(gen, cfg)
}

// EngineConfig configures the concurrent goroutine runtime (bounded
// links, ack-based windows, wall-clock measurement).
type EngineConfig = dspe.Config

// Transport selects the backend behind the goroutine runtime's links
// (EngineConfig.Transport): in-process rings, or loopback TCP with
// columnar framing and write coalescing. Results are bit-identical
// across backends at Sources = 1; see the package doc's Transport
// section.
type Transport = dspe.Transport

// The goroutine runtime's backends (see Transport); TransportMemory is
// the default.
const (
	TransportMemory = dspe.TransportMemory
	TransportTCP    = dspe.TransportTCP
)

// EngineResult reports wall-clock throughput and latency of a topology.
type EngineResult = dspe.Result

// RunTopology executes the goroutine DSPE end to end.
func RunTopology(gen Generator, cfg EngineConfig) (EngineResult, error) {
	return dspe.Run(gen, cfg)
}

// ---------------------------------------------------------------------------
// Two-phase windowed aggregation

// AggFinal is one merged per-(window, key) result emitted by the
// reducer stage of a two-phase aggregation (EngineConfig.OnFinal).
type AggFinal = aggregation.Final

// AggPartial is one worker's windowed partial aggregate — the unit of
// aggregation traffic between the worker and reducer stages.
type AggPartial = aggregation.Partial

// AggStats reports the measured cost of the aggregation phase: partial
// traffic, merge work, finals, late corrections, and the reducer's
// memory high-water marks. Returned in EngineResult.Agg and
// ClusterResult.Agg.
type AggStats = aggregation.ReducerStats

// Merger is the pluggable merge operator of the two-phase aggregation:
// a commutative, associative fold over per-message samples, observed
// incrementally at the workers and combined across workers' partials
// at the reduce stage. Select one via EngineConfig.AggMerger /
// ClusterConfig.AggMerger, with WithValues deriving each message's
// sample.
type Merger = aggregation.Merger

// MergeValue is a Merger's fixed-size (128-bit) state, carried inline
// in the partial tables and flushed partials so pluggable operators
// keep the zero-allocation steady state.
type MergeValue = aggregation.Value

// The built-in merge operators.
var (
	// CountMerger counts messages (the default everywhere a Merger is
	// not given): Final.Value equals Final.Count.
	CountMerger = aggregation.CountMerger
	// SumMerger sums each message's sample (see WithValues).
	SumMerger = aggregation.SumMerger
	// MinMerger keeps the smallest sample.
	MinMerger = aggregation.MinMerger
	// MaxMerger keeps the largest sample.
	MaxMerger = aggregation.MaxMerger
	// DistinctMerger estimates the distinct sample count per
	// (window, key) with a compact 16-register HyperLogLog that merges
	// across workers without bias.
	DistinctMerger = aggregation.DistinctMerger
)

// AggShardFor returns the reducer shard among `shards` that the reduce
// stage merges a key digest's partials at (the Lemire reduction both
// engines use when AggShards > 1); exported so applications embedding
// the aggregation phase can co-partition their own reduce stage.
func AggShardFor(dg KeyDigest, shards int) int { return aggregation.ShardFor(dg, shards) }

// ---------------------------------------------------------------------------
// Analysis helpers

// SolveD runs FINDOPTIMALCHOICES analytically: the minimal number of
// choices d for the given head frequencies (sorted non-increasing),
// tail mass, worker count and tolerance ε. Returns n when the solver
// concludes the system should switch to W-Choices.
func SolveD(headProbs []float64, tailMass float64, n int, eps float64) int {
	return analysis.SolveD(headProbs, tailMass, n, eps)
}

// ZipfProbs returns the probability vector of a finite Zipf
// distribution, hottest first.
func ZipfProbs(z float64, keys int) []float64 { return workload.ZipfProbs(z, keys) }

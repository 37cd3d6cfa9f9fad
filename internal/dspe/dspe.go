// Package dspe is a miniature distributed stream processing engine in
// the style of Apache Storm, used for deployment-style (wall-clock)
// measurements of the partitioning algorithms. The topology mirrors the
// paper's cluster experiment: spout goroutines (sources) emit a keyed
// stream through a partitioner into bolt goroutines (workers) connected
// by bounded channels (Storm's bounded executor queues → backpressure),
// with an ack-based per-source in-flight window (max spout pending) and
// a fixed per-message processing cost at the workers.
//
// The data plane is batched end to end: spouts draw key slabs from the
// generator (stream.NextBatch), route them in one RouteBatch call, and
// send []tuple slabs — one per destination bolt — over the channels, so
// per-message channel and scheduler overhead is amortized by Config.Batch.
//
// With Config.AggWindow set the topology becomes the two-phase windowed
// aggregation the paper's overhead analysis is about: bolts keep
// digest-keyed partial aggregates per tumbling window
// (internal/aggregation; the merge operator is pluggable via
// Config.AggMerger — count by default) and flush closed windows as
// batched partial slabs to a reduce stage of Config.AggShards parallel
// reducer goroutines, sharded by key digest (aggregation.ShardFor), so
// a key's partials always meet at one reducer. Each shard has its own
// bounded flush channel and closes its slice of every window on
// per-shard completeness (thresholds counted at the spouts as they
// route); finals fan back in through OnFinal. Result.Agg reports the
// measured aggregation traffic, merge work and reducer memory;
// Result.AggReducerUtil the busiest shard's merging fraction of the
// run (AggReducerUtilMean the average shard's).
//
// Tuples carry the KeyDigest routing computed (RouteBatchDigests), so a
// key's bytes are scanned exactly once per message end to end: the
// bolt-side partial tables and the reducer both operate on the carried
// digest. Spouts additionally broadcast watermark ticks to EVERY bolt
// when the global emission sequence enters a new window, so a bolt that
// happens to receive no traffic still flushes its closed windows —
// window-close latency depends on stream progress, not on which bolts
// the partitioner favors.
//
// Unlike internal/eventsim, results here depend on the host: use this
// engine to demonstrate the system end-to-end, and eventsim for
// reproducible numbers.
package dspe

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/metrics"
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
	// (the paper uses 1 ms). Zero means no artificial delay.
	ServiceTime time.Duration
	// QueueLen is the per-bolt input channel capacity in tuple slabs;
	// 0 means 128.
	QueueLen int
	// Window is the per-spout in-flight cap; 0 means 100.
	Window int
	// Batch is the spout emission slab size: keys drawn, routed and sent
	// per iteration. 0 means 64; it is clamped to Window so a spout can
	// always acquire its whole slab's in-flight slots.
	Batch int
	// Messages caps the emitted messages; 0 means the generator length.
	Messages int64
	// Spin selects busy-wait instead of time.Sleep for the service time:
	// more faithful CPU saturation, but burns host CPU. Tests keep it off.
	Spin bool
	// SlowFactor optionally multiplies the service time of individual
	// bolts (failure injection: stragglers). nil means homogeneous.
	SlowFactor map[int]float64
	// AggWindow, when positive, turns the topology into a two-phase
	// windowed aggregation: every bolt keeps per-key partial aggregates
	// per tumbling window of AggWindow tuples (window ids stamped at the
	// spout from the global emission sequence) and flushes closed windows
	// as batched partial slabs to the reduce stage, which merges partials
	// by key digest and emits finals. Zero disables aggregation.
	AggWindow int64
	// AggShards is R, the number of parallel reducer goroutines the
	// reduce stage is sharded into by key digest (aggregation.ShardFor):
	// each shard owns the keys whose digests map to it, has its own
	// bounded flush channel, and closes its slice of every window on
	// per-shard completeness. 0 means 1 (a single reducer goroutine).
	AggShards int
	// AggMerger selects the merge operator applied per (window, key):
	// aggregation.CountMerger (the default, nil), SumMerger, MinMerger,
	// MaxMerger, DistinctMerger, or any custom Merger.
	AggMerger aggregation.Merger
	// AggValue derives the 64-bit sample the merger observes for each
	// message; seq is the message's global emission index. nil falls
	// back to the generator's recorded payload values when it carries
	// any (stream.ValueBatchGenerator — e.g. a version-2 tracefile
	// replay), and to the constant 1 (so sum ≡ count) otherwise.
	AggValue func(key string, seq int64) int64
	// AggMergeCost, when positive, simulates a per-partial merge cost at
	// the reducer shards (slept or spun per Config.Spin, batched per
	// slab), so wall-clock runs can reproduce the reducer-bound regime
	// the discrete-event engine models with its AggMergeCost — and show
	// sharding move the saturation point. Zero adds no artificial cost.
	AggMergeCost time.Duration
	// OnFinal, when set (and AggWindow > 0), receives every merged final
	// from the reduce stage. Calls are serialized across reducer shards
	// (when AggShards > 1, a mutex each shard takes once per merged slab
	// to hand over that slab's finals — see finalFanIn), so the callback
	// needs no locking of its own.
	OnFinal func(aggregation.Final)
	// Dataplane selects the transport tuples and partials travel on:
	// DataplaneChannel (the default) moves freshly allocated slabs over
	// buffered Go channels; DataplaneRing moves tuples through per-edge
	// lock-free SPSC rings (internal/ring) whose slot arrays are the
	// tuple arena, with a worker-side combiner tree pre-merging bolt
	// partials in front of the reducer-shard hop. Results are identical
	// across dataplanes (same finals, same replication factors); only
	// the wall-clock cost differs.
	Dataplane Dataplane
	// Transport selects the edge fabric for the data hops (spout→bolt
	// tuples and bolt→shard partials). TransportDirect (the default)
	// keeps the in-process dataplane selected by Config.Dataplane;
	// TransportMemory and TransportTCP run the topology over
	// internal/transport links (Dataplane is ignored): per-edge SPSC
	// rings behind the Transport interface, or loopback TCP connections
	// with varint framing and write coalescing. Finals and replication
	// factors are bit-equal across all transports at Sources=1; only
	// the wall-clock cost differs. With TransportTCP and Telemetry set,
	// per-link wire counters (bytes, frames, flushes, stalls) land in
	// the registry.
	Transport Transport
	// adaptiveWindow records that the caller left Window at its default:
	// the TCP transport plane then grows the per-spout ack window
	// adaptively (doubling on ack stalls up to adaptiveWindowMax) instead
	// of pinning it at 100, which over a kernel socket is ack-latency
	// bound. Explicitly set windows are always honored as-is.
	adaptiveWindow bool
	// Chaos, when non-nil, wraps the transport fabric (memory or TCP)
	// in deterministic fault injection — dropped buffer writes and
	// severed connections per the schedule — while the engine's results
	// stay bit-equal to a fault-free run: the TCP backend recovers
	// through reconnect + retransmit + receive-edge dedup, the memory
	// backend through FIFO-preserving holdback. TCP delivery timers are
	// tightened automatically so recovery is fast relative to the run.
	// Ignored for TransportDirect.
	Chaos *transport.ChaosConfig
	// OnFaultStats, when set together with Chaos, receives the per-link
	// injected-fault ledger after the run drains — the hook the
	// fault-parity tests use to assert a run actually suffered the
	// schedule it survived.
	OnFaultStats func(map[string]transport.ChaosLinkStats)
	// Telemetry, when non-nil, receives the run's live metric series:
	// per-spout routing activity (core.RouteRecorder), ack-window and
	// ring publish/acquire stalls, per-bolt queue depths and processed
	// counts, bolt-side partial flushes, and per-shard reducer busy time
	// and occupancy gauges. Series names and labels are listed in
	// internal/dspe/telemetry.go and the slb package doc (§ Telemetry).
	// All hooks are per-slab or snapshot-time; nil adds no work at all.
	Telemetry *telemetry.Registry
}

// Dataplane names a tuple-transport implementation; see Config.Dataplane.
type Dataplane int

const (
	// DataplaneChannel moves tuple slabs over buffered Go channels with
	// ownership transfer (one allocation per slab): the baseline.
	DataplaneChannel Dataplane = iota
	// DataplaneRing moves tuples through per-edge lock-free SPSC ring
	// buffers: zero-allocation steady state, batched publish/consume,
	// atomic in-flight acks, and a worker-side combiner tree in front
	// of the reduce stage.
	DataplaneRing
)

// Transport names an edge fabric; see Config.Transport.
type Transport int

const (
	// TransportDirect uses the in-process dataplane (Config.Dataplane).
	TransportDirect Transport = iota
	// TransportMemory runs every data hop over internal/transport's
	// ring-backed in-memory backend.
	TransportMemory
	// TransportTCP runs every data hop over loopback TCP connections
	// with length-prefixed varint frames and write coalescing.
	TransportTCP
)

func (c Config) withDefaults() (Config, error) {
	if c.Workers <= 0 || c.Sources <= 0 {
		return c, fmt.Errorf("dspe: Workers and Sources must be positive")
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 128
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
	Elapsed   time.Duration
	// Throughput is completed messages per wall-clock second.
	Throughput float64
	// MaxAvgLatency is the maximum per-bolt mean latency.
	MaxAvgLatency time.Duration
	// P50/P95/P99 are end-to-end latency percentiles across all tuples.
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
	// worker-side aggregation output. Under DataplaneChannel the reduce
	// stage merges exactly these (Agg.Partials == AggBoltPartials);
	// under DataplaneRing the combiner tree pre-merges them, so
	// Agg.Partials — what the reducers actually merged — is strictly
	// smaller whenever replication gives the tree anything to combine.
	AggBoltPartials int64
}

// tuple is one in-flight message. With aggregation on it carries the
// KeyDigest routing computed, so bolts never re-scan the key bytes,
// plus the merger sample resolved at the spout (AggValue hook, else
// generator-recorded value, else 1 — see Config.AggValue). A
// negative src marks a watermark tick: window holds the id of the
// window the global emission sequence has entered, there is no key and
// no ack, and the receiving bolt just flushes its closed windows.
type tuple struct {
	key     string
	dig     core.KeyDigest
	emitted time.Time
	window  int64 // tumbling-window id (0 unless Config.AggWindow > 0)
	val     int64 // merger sample (see Config.AggValue for the contract)
	src     int32
}

// boltStats is written only by the owning bolt goroutine.
type boltStats struct {
	lat   *metrics.Quantiles
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

	gen.Reset()
	limit := gen.Len()
	if cfg.Messages > 0 && cfg.Messages < limit {
		limit = cfg.Messages
	}
	if cfg.Transport != TransportDirect {
		return runTransport(gen, cfg, parts, limit)
	}
	if cfg.Dataplane == DataplaneRing {
		return runRing(gen, cfg, parts, limit)
	}
	pt := newPlaneTelemetry(cfg)

	// Channels carry tuple slabs: one send per (slab, destination bolt)
	// instead of one per message.
	in := make([]chan []tuple, cfg.Workers)
	for i := range in {
		in[i] = make(chan []tuple, cfg.QueueLen)
	}
	pt.observeChannelQueues(in)
	// Per-source window semaphores: spouts acquire before emitting, bolts
	// release after processing (the ack path).
	window := make([]chan struct{}, cfg.Sources)
	for i := range window {
		window[i] = make(chan struct{}, cfg.Window)
	}
	// Watermark-tick slabs are recycled through a freelist: the tick
	// broadcast is per (bolt, window), and allocating each single-tuple
	// tick slab was the hot path's one remaining per-window allocation.
	// The channel hop gives the recycle the happens-before the reuse
	// needs; if the pool runs dry the spout just allocates.
	var tickFree chan []tuple
	if cfg.AggWindow > 0 {
		tickFree = make(chan []tuple, 4*cfg.Workers)
	}

	svcFor := func(w int) time.Duration {
		d := cfg.ServiceTime
		if f, ok := cfg.SlowFactor[w]; ok {
			d = time.Duration(float64(d) * f)
		}
		return d
	}

	// Aggregation (two-phase) plumbing: bolts flush closed windows as
	// partial slabs, split by key-digest shard, over R bounded channels
	// to R reducer goroutines — the same slab-ownership-transfer
	// discipline as the data plane. Each shard's goroutine owns that
	// shard's Driver inside the ShardedDriver; windows close on
	// per-shard completeness (thresholds counted at the spouts via
	// ObserveEmits), so each (window, key) yields exactly one Final
	// regardless of how bolts and shards interleave.
	shards := cfg.AggShards
	var (
		sd         *aggregation.ShardedDriver
		aggCh      []chan []aggregation.Partial
		reduceBusy []time.Duration
		reduceWG   sync.WaitGroup
	)
	if cfg.AggWindow > 0 {
		sd = aggregation.NewShardedDriver(cfg.Workers, shards, cfg.AggWindow, limit, cfg.AggMerger)
		pt.observeReduce(sd)
		aggCh = make([]chan []aggregation.Partial, shards)
		reduceBusy = make([]time.Duration, shards)
		fan := &finalFanIn{user: cfg.OnFinal, shards: shards}
		for r := 0; r < shards; r++ {
			aggCh[r] = make(chan []aggregation.Partial, 2*cfg.Workers)
			reduceWG.Add(1)
			go func(r int) {
				defer reduceWG.Done()
				onFinal, deliver := fan.shard()
				// The simulated merge cost is paid as a DEBT settled in
				// ≥ 1 ms chunks, with each settlement's measured oversleep
				// credited back: per-slab sleeps would bottom out at the
				// timer floor and charge every shard the slab COUNT (which
				// sharding does not reduce — each bolt flush sends one slab
				// per shard) instead of the partial count (which it does).
				var debt time.Duration
				settle := func(threshold time.Duration) {
					if debt > threshold {
						s0 := time.Now()
						simulateWork(debt, cfg.Spin)
						debt -= time.Since(s0)
					}
				}
				for slab := range aggCh[r] {
					t0 := time.Now()
					if cfg.AggMergeCost > 0 {
						debt += cfg.AggMergeCost * time.Duration(len(slab))
						settle(time.Millisecond)
					}
					sd.MergeShard(r, slab, onFinal)
					deliver()
					d := time.Since(t0)
					reduceBusy[r] += d
					pt.addReduce(r, len(slab), d)
				}
				t0 := time.Now()
				settle(0)
				sd.FinishShard(r, onFinal)
				deliver()
				d := time.Since(t0)
				reduceBusy[r] += d
				pt.addReduce(r, 0, d)
			}(r)
		}
	}

	stats := make([]boltStats, cfg.Workers)
	boltPartials := make([]int64, cfg.Workers) // written at bolt exit
	var bolts sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		bolts.Add(1)
		go func(w int) {
			defer bolts.Done()
			st := &stats[w]
			st.lat = metrics.NewQuantiles(1 << 14)
			var acc *aggregation.Accumulator
			var scratch []aggregation.Partial
			var shardOf []int32 // per-partial shard, parallel to scratch
			var shardCounts []int
			var slabs [][]aggregation.Partial
			if cfg.AggWindow > 0 {
				acc = aggregation.NewAccumulatorMerger(w, cfg.AggMerger)
				shardCounts = make([]int, shards)
				slabs = make([][]aggregation.Partial, shards)
			}
			// flushClosed closes windows below `before`, splits the
			// partials by reducer shard (one ShardFor per partial, shard
			// recorded for the fill pass), and hands each shard its slab
			// (freshly allocated: ownership transfers over the channel;
			// the bolt-local scratches are reused across flushes).
			flushClosed := func(before int64) {
				scratch = acc.FlushBefore(before, scratch[:0])
				if len(scratch) == 0 {
					return
				}
				pt.addBoltPartials(len(scratch))
				if shards == 1 {
					aggCh[0] <- append(make([]aggregation.Partial, 0, len(scratch)), scratch...)
					return
				}
				if cap(shardOf) < len(scratch) {
					shardOf = make([]int32, len(scratch))
				}
				shardOf = shardOf[:len(scratch)]
				for r := range shardCounts {
					shardCounts[r] = 0
				}
				for i := range scratch {
					r := aggregation.ShardFor(scratch[i].Digest, shards)
					shardOf[i] = int32(r)
					shardCounts[r]++
				}
				for i := range scratch {
					r := shardOf[i]
					if slabs[r] == nil {
						slabs[r] = make([]aggregation.Partial, 0, shardCounts[r])
					}
					slabs[r] = append(slabs[r], scratch[i])
				}
				for r, slab := range slabs {
					if slab != nil {
						aggCh[r] <- slab
						slabs[r] = nil
					}
				}
			}
			for slab := range in[w] {
				if len(slab) == 1 && slab[0].src < 0 {
					// Watermark tick (always its own single-tuple slab): the
					// global emission sequence entered window slab[0].window,
					// so (with one window of slack, same as the data path
					// below) older windows are complete at this bolt even if
					// it never sees another tuple. The slab goes back to the
					// freelist for the next broadcast.
					if acc != nil {
						flushClosed(slab[0].window - 1)
					}
					select {
					case tickFree <- slab:
					default:
					}
					continue
				}
				for _, tp := range slab {
					simulateWork(svcFor(w), cfg.Spin)
					if acc != nil {
						if wm, ok := acc.Watermark(); ok && tp.window > wm {
							// Watermark advance: flush with one window of slack,
							// so slabs from lagging spouts (bounded reordering:
							// at most one drawn-but-unsent slab per spout) do not
							// fragment a window already flushed.
							flushClosed(tp.window - 1)
						}
						acc.AddSample(tp.window, tp.dig, tp.key, 1, tp.val)
					}
					lat := time.Since(tp.emitted)
					st.lat.Add(float64(lat))
					st.count++
					st.sum += lat
					<-window[tp.src] // ack
				}
				pt.addBoltMsgs(w, len(slab))
			}
			if acc != nil {
				flushClosed(1 << 62)
				boltPartials[w] = acc.Flushed()
			}
		}(w)
	}

	// The input stream is shared by all spouts (shuffle grouping from the
	// data source to the spouts); see slabSource.
	nextSlab, _ := slabSource(gen, limit)
	genVals := stream.Values(gen) != nil

	// tickedWindow is the highest window id announced to the bolts via
	// watermark ticks; the spout whose slab first enters a window
	// broadcasts the tick (idempotent at the bolts: flushing an already
	// flushed window is a no-op).
	var tickedWindow atomic.Int64

	start := time.Now()
	var spouts sync.WaitGroup
	for s := 0; s < cfg.Sources; s++ {
		spouts.Add(1)
		go func(s int) {
			defer spouts.Done()
			p := parts[s]
			keys := make([]string, cfg.Batch)
			dsts := make([]int, cfg.Batch)
			var digs []core.KeyDigest
			var vals []int64
			if cfg.AggWindow > 0 {
				digs = make([]core.KeyDigest, cfg.Batch)
				// Sampling contract (stream.ValueBatchGenerator): the
				// AggValue hook wins; else recorded generator values; else
				// the constant 1 (leaving vals nil keeps the draw key-only).
				if cfg.AggValue == nil && genVals {
					vals = make([]int64, cfg.Batch)
				}
			}
			counts := make([]int, cfg.Workers)
			pending := make([][]tuple, cfg.Workers)
			for {
				n, base := nextSlab(keys, vals)
				if n == 0 {
					return
				}
				// Acquire the whole slab's in-flight slots (Batch ≤ Window,
				// so this always completes once acks drain). With telemetry
				// on, the acquisition is timed per slab: this is where ack
				// backpressure (slow bolts) stalls the spout.
				var t0 time.Time
				if pt != nil {
					t0 = time.Now()
				}
				for i := 0; i < n; i++ {
					window[s] <- struct{}{}
				}
				if pt != nil {
					pt.addAckWait(s, time.Since(t0))
					t0 = time.Now()
				}
				if cfg.AggWindow > 0 {
					// Hash-once: routing computes the digests the bolts'
					// partial tables (and the reduce stage) will key by.
					core.RouteBatchDigests(p, keys[:n], digs, dsts)
					pt.recordRoute(s, p, n, time.Since(t0))
					// Count the slab toward its windows' per-shard
					// completeness thresholds BEFORE any of its tuples can be
					// sent (a threshold must never lag a mergeable partial).
					// No-op with one shard.
					sd.ObserveEmits(base, digs[:n])
					// Broadcast a watermark tick to every bolt when the global
					// emission sequence enters a window no spout announced yet,
					// so bolts the partitioner starves still flush on time.
					if cw := (base + int64(n) - 1) / cfg.AggWindow; cw > tickedWindow.Load() {
						for {
							seen := tickedWindow.Load()
							if cw <= seen {
								break
							}
							if tickedWindow.CompareAndSwap(seen, cw) {
								for w := range in {
									var tk []tuple
									select {
									case tk = <-tickFree:
										tk = tk[:1]
									default:
										tk = make([]tuple, 1)
									}
									tk[0] = tuple{src: -1, window: cw}
									in[w] <- tk
								}
								break
							}
						}
					}
				} else {
					core.RouteBatch(p, keys[:n], dsts)
					pt.recordRoute(s, p, n, time.Since(t0))
				}
				// Group the slab by destination bolt. The per-bolt slabs are
				// freshly allocated: ownership transfers over the channel.
				for i := range counts {
					counts[i] = 0
				}
				for _, w := range dsts[:n] {
					counts[w]++
				}
				now := time.Now()
				for i := 0; i < n; i++ {
					w := dsts[i]
					if pending[w] == nil {
						pending[w] = make([]tuple, 0, counts[w])
					}
					tp := tuple{key: keys[i], emitted: now, src: int32(s)}
					if cfg.AggWindow > 0 {
						tp.window = (base + int64(i)) / cfg.AggWindow
						tp.dig = digs[i]
						tp.val = 1
						if cfg.AggValue != nil {
							tp.val = cfg.AggValue(keys[i], base+int64(i))
						} else if vals != nil {
							tp.val = vals[i]
						}
					}
					pending[w] = append(pending[w], tp)
				}
				for w, sl := range pending {
					if sl != nil {
						in[w] <- sl
						pending[w] = nil
					}
				}
			}
		}(s)
	}

	spouts.Wait()
	for _, ch := range in {
		close(ch)
	}
	bolts.Wait()
	elapsed := time.Since(start)
	// The reducer shards keep draining after the bolts finish (queued
	// slabs, end-of-stream flushes, Finish); the utilization denominator
	// must cover that tail, so it extends to the last shard's join.
	total := elapsed
	if aggCh != nil {
		for _, ch := range aggCh {
			close(ch)
		}
		reduceWG.Wait()
		total = time.Since(start)
	}

	res := Result{
		Algorithm: cfg.Algorithm,
		Elapsed:   elapsed,
		Loads:     make([]int64, cfg.Workers),
	}
	if cfg.AggWindow > 0 {
		res.Agg = sd.Stats()
		res.AggTotal = sd.Total()
		res.AggReplication = sd.Replication()
		for _, n := range boltPartials {
			res.AggBoltPartials += n
		}
		if total > 0 {
			for _, busy := range reduceBusy {
				u := float64(busy) / float64(total)
				res.AggReducerUtilMean += u / float64(shards)
				if u > res.AggReducerUtil {
					res.AggReducerUtil = u
				}
			}
		}
	}
	for w := range stats {
		st := &stats[w]
		res.Loads[w] = st.count
		res.Completed += st.count
		if st.count > 0 {
			if avg := st.sum / time.Duration(st.count); avg > res.MaxAvgLatency {
				res.MaxAvgLatency = avg
			}
		}
	}
	pooled := poolLatency(stats)
	res.P50 = time.Duration(pooled.Quantile(0.50))
	res.P95 = time.Duration(pooled.Quantile(0.95))
	res.P99 = time.Duration(pooled.Quantile(0.99))
	res.Imbalance = metrics.Imbalance(res.Loads)
	if sec := elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(res.Completed) / sec
	}
	gen.Reset()
	return res, nil
}

// poolLatency merges the per-bolt latency reservoirs into one pooled
// estimator with count-proportional weighting (metrics.Quantiles.Merge):
// a bolt that processed 100× the tuples contributes 100× the mass.
// The previous implementation re-sampled each bolt's 0.05–0.95 quantile
// grid with equal weight, which (a) capped the pooled P99 at the largest
// single-bolt p95 — the tail above p95 was simply discarded — and
// (b) gave a bolt that processed 50 tuples the same vote as one that
// processed 50k, so the hot bolt's queueing tail vanished from the
// pooled percentiles exactly when it mattered.
func poolLatency(stats []boltStats) *metrics.Quantiles {
	pooled := metrics.NewQuantiles(1 << 16)
	for w := range stats {
		if stats[w].count > 0 {
			pooled.Merge(stats[w].lat)
		}
	}
	return pooled
}

// slabSource returns a draw function over the shared generator — slab
// draws are serialized with a mutex (one lock per slab, not per
// message), capped at limit total keys, and each draw also returns the
// slab's base position in the global emission sequence, from which the
// spout derives tumbling-window ids — plus an accessor for the total
// drawn so far. A non-nil vals slice (len ≥ len(dst)) is filled in
// lockstep with the keys' payload values (stream.NextBatchValues);
// nil draws keys only. Both Run and Pipeline.Run feed their spouts
// from one of these.
func slabSource(gen stream.Generator, limit int64) (draw func(dst []string, vals []int64) (int, int64), drawn func() int64) {
	var mu sync.Mutex
	var emitted int64
	draw = func(dst []string, vals []int64) (int, int64) {
		mu.Lock()
		defer mu.Unlock()
		if rem := limit - emitted; rem < int64(len(dst)) {
			dst = dst[:rem]
		}
		if len(dst) == 0 {
			return 0, emitted
		}
		base := emitted
		var n int
		if vals != nil {
			n = stream.NextBatchValues(gen, dst, vals)
		} else {
			n = stream.NextBatch(gen, dst)
		}
		emitted += int64(n)
		return n, base
	}
	drawn = func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return emitted
	}
	return draw, drawn
}

// simulateWork burns the configured service time.
func simulateWork(d time.Duration, spin bool) {
	if d <= 0 {
		return
	}
	if !spin {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// Package eventsim is a deterministic discrete-event simulation of the
// paper's cluster experiment (Section V, Q4): s sources emit a keyed
// stream through a partitioner to n workers, each worker is a FIFO queue
// with a fixed per-message service time (1 ms in the paper), and sources
// are closed-loop with a bounded in-flight window (Storm's max spout
// pending). Throughput and latency are queueing outcomes: the most
// loaded worker saturates first, its queue absorbs the in-flight window,
// and end-to-end latency and total throughput degrade exactly as in the
// paper's Figures 13 and 14.
//
// With Config.AggWindow set, the two-phase aggregation's REDUCE STAGE
// is a set of modeled service stations, not free bookkeeping: the
// stage is sharded Config.AggShards ways by key digest
// (aggregation.ShardFor over the carried KeyDigest, so a key's
// partials always meet at one shard), each flushed partial costs the
// flushing worker Config.AggFlushCost (serialize and emit) and then
// occupies ITS shard's station for Config.AggMergeCost of service,
// through that shard's bounded FIFO queue (Config.AggQueueLen) that
// exerts backpressure — a worker whose flush finds the shard queue
// full blocks until that shard drains. Reducer saturation therefore
// propagates to end-to-end throughput and latency exactly as a
// saturated worker does — and moves with R: the stage's capacity is
// AggShards/AggMergeCost partials per ms, so sharding relocates the
// saturation point the D/W-Choices balance-vs-replication trade-off is
// priced against. Result.ReducerUtil reports the most-loaded shard's
// utilization (ReducerUtilMean the average, ReducerShardUtil each) and
// Result.ReducerPeakQueue the largest per-shard backlog.
//
// Values merged per (window, key) are pluggable: Config.AggMerger
// selects the operator (count by default; sum/min/max/distinct built
// in) and each message's merged sample is resolved by the sampling
// contract of stream.Source, which the event loop draws its input
// through — the generator's recorded payload values (a version-2
// tracefile replay, or a stream.WithValues wrapper), else the constant
// 1.
//
// Workers flush on watermark progress, not only on their own traffic:
// when the global emission sequence enters a new window, idle workers
// are ticked to flush their closed windows immediately (and busy
// workers flush when they drain), so window-close latency follows
// stream progress rather than end-of-stream. The window clock is the
// reduce stage's: aggregation.Driver.ObserveEmits counts each emission
// toward its shard's threshold and announces the windows the stream
// enters, exactly as it does for internal/dspe. Per-worker arrival order
// equals emission order here, so a tick flush is always complete —
// it never fragments a window's partial.
//
// Unlike the goroutine runtime in internal/dspe, results here are
// bit-reproducible and independent of host speed, which makes this the
// default engine for regenerating the paper's numbers.
package eventsim

import (
	"container/heap"
	"fmt"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/hashing"
	"slb/internal/metrics"
	"slb/internal/stream"
	"slb/internal/telemetry"
)

// Config describes one simulated deployment. Times are in milliseconds.
type Config struct {
	// Workers is n (the paper uses 80 on the cluster).
	Workers int
	// Sources is s (the paper uses 48).
	Sources int
	// Algorithm is the partitioner name (core.Names).
	Algorithm string
	// Core carries seed/θ/ε; Workers is filled in from this config.
	Core core.Config
	// ServiceTime is the fixed per-message processing cost at a worker
	// (the paper adds a 1 ms delay). Must be positive.
	ServiceTime float64
	// EmitInterval is the time between consecutive emissions of one
	// source while its window has room; it models the source's own
	// processing cost. 0 means ServiceTime/20 (sources well faster than
	// workers, so workers saturate first, as in the paper).
	EmitInterval float64
	// Window is the per-source in-flight cap (max spout pending);
	// 0 means 100.
	Window int
	// Messages caps the number of emitted messages; 0 means the
	// generator's full length.
	Messages int64
	// SlowFactor optionally multiplies the service time of individual
	// workers (failure injection: stragglers). nil means homogeneous.
	SlowFactor map[int]float64
	// MeasureAfter excludes the first MeasureAfter completed messages
	// from throughput and latency statistics, measuring steady state
	// only (the paper averages over long runs, hiding the sketch warmup
	// transient). 0 measures everything.
	MeasureAfter int64
	// AggWindow, when positive, models the two-phase windowed
	// aggregation: window ids derive from the emission index (window =
	// index / AggWindow), workers keep digest-keyed partial counts per
	// window (internal/aggregation) and pay AggFlushCost of service time
	// per partial when a window closes at them; the reducer merges
	// partials off the critical path and its traffic, merge work and
	// memory are reported in Result.Agg. Everything is event-driven, so
	// the overhead numbers are deterministic and host-independent.
	AggWindow int64
	// AggFlushCost is the worker time (ms) to serialize and emit ONE
	// partial at window close — the knob that turns replication into a
	// throughput cost. 0 means ServiceTime/10.
	AggFlushCost float64
	// AggMergeCost is a reducer shard's service time (ms) to merge ONE
	// partial into its window table. Each shard is a FIFO service
	// station, so an aggregate partial arrival rate above
	// AggShards/AggMergeCost saturates the stage. 0 means AggFlushCost/4
	// (a merge is a table probe, cheaper than serializing).
	AggMergeCost float64
	// AggQueueLen is EACH reducer shard's input queue capacity in
	// partials. A worker flushing into a full shard queue blocks until
	// that shard drains (backpressure), which is how reducer saturation
	// reaches end-to-end throughput. 0 means 4096.
	AggQueueLen int
	// AggShards is R, the number of parallel reducer stations the reduce
	// stage is sharded into by key digest (aggregation.ShardFor). Window
	// close stays completeness-based PER SHARD: each shard's slice of a
	// window closes the instant the shard has merged every message the
	// sources emitted into it (per-shard thresholds are counted at
	// routing, on the already-computed digest). 0 means 1 (the single
	// reducer of the unsharded model).
	AggShards int
	// LinkDelay, when positive, models the worker→reducer hop as a
	// synchronous remote link: every flushed partial pays this one-way
	// delay (ms) between serialization and admission to its shard's
	// station, on the flushing worker's clock — the cost profile of a
	// per-partial remote admission, exactly what internal/transport's
	// frame coalescing exists to avoid. The charge rides the existing
	// closed-form station recurrence (admitOne at a later arrival time),
	// so the model stays event-free and exact. 0 disables the delay
	// model entirely; such runs are bit-identical to builds without it.
	LinkDelay float64
	// LinkJitter is the per-hop jitter amplitude (ms): each hop adds a
	// deterministic hash-derived fraction of it (uniform over [0, 1) in
	// (worker, shard, hop index)), so repeated runs are bit-identical.
	// Only meaningful with LinkDelay > 0.
	LinkJitter float64
	// LinkSlowOneIn, when positive, gives roughly one in N hops a rare
	// slow-path transition (a retransmit, a GC pause on the path)
	// costing ten times (LinkDelay + LinkJitter) extra ms, selected by
	// the same deterministic per-hop hash.
	LinkSlowOneIn int
	// LinkOutagePeriod, when positive, gives every worker→reducer link a
	// periodic outage: once per this many ms the link goes dark for
	// LinkOutageDuration ms, with a deterministic per-link phase so
	// links fail staggered rather than in lockstep. A partial whose
	// arrival lands inside the dark window is lost and retransmitted
	// when the link recovers — charged as a deferred arrival inside the
	// closed-form station recurrence, the simulation-side cost profile
	// of internal/transport's reconnect-and-resend episode. Result
	// reports the retransmission count and total outage wait. Works with
	// or without LinkDelay; 0 disables outages.
	LinkOutagePeriod float64
	// LinkOutageDuration is the dark time per outage cycle (ms); 0 with
	// LinkOutagePeriod > 0 means a tenth of the period.
	LinkOutageDuration float64
	// AggMerger selects the merge operator applied per (window, key):
	// aggregation.CountMerger (the default, nil), SumMerger, MinMerger,
	// MaxMerger, DistinctMerger, or any custom Merger. Each message's
	// sample — the addend for sum, the comparand for min/max, the
	// element for distinct — is the generator's recorded value, else 1
	// (the sampling contract, documented on stream.Source;
	// stream.WithValues derives one).
	AggMerger aggregation.Merger
	// OnFinal, when set (and AggWindow > 0), receives every merged final
	// the reducer emits, in deterministic order.
	OnFinal func(aggregation.Final)
	// Telemetry, when non-nil, receives the run's live metric series:
	// per-spout routing activity, emitted/completed counts, per-worker
	// queue depths, reducer-shard busy time and occupancy, and simulated
	// backpressure stalls. Durations are SIMULATED time stored as ns, so
	// the series are deterministic. Series names are listed in
	// internal/eventsim/telemetry.go and the slb package doc
	// (§ Telemetry). The simulation's results are identical with and
	// without a registry.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() (Config, error) {
	if c.Workers <= 0 || c.Sources <= 0 {
		return c, fmt.Errorf("eventsim: Workers and Sources must be positive")
	}
	if c.ServiceTime <= 0 {
		return c, fmt.Errorf("eventsim: ServiceTime must be positive")
	}
	if c.EmitInterval <= 0 {
		c.EmitInterval = c.ServiceTime / 20
	}
	if c.Window <= 0 {
		c.Window = 100
	}
	if c.AggWindow > 0 {
		if c.AggFlushCost <= 0 {
			c.AggFlushCost = c.ServiceTime / 10
		}
		if c.AggMergeCost <= 0 {
			c.AggMergeCost = c.AggFlushCost / 4
		}
		if c.AggQueueLen <= 0 {
			c.AggQueueLen = 4096
		}
		if c.AggShards <= 0 {
			c.AggShards = 1
		}
		if c.LinkOutagePeriod > 0 && c.LinkOutageDuration <= 0 {
			c.LinkOutageDuration = c.LinkOutagePeriod / 10
		}
	}
	c.Core.Workers = c.Workers
	return c, nil
}

// Result reports the simulated deployment's performance.
type Result struct {
	Algorithm string
	// Completed is the number of messages fully processed.
	Completed int64
	// Duration is the simulated makespan in ms.
	Duration float64
	// Throughput is completed messages per simulated second.
	Throughput float64
	// MaxAvgLatency is the maximum over workers of the per-worker mean
	// latency (ms): the "max avg" bar of Fig. 14.
	MaxAvgLatency float64
	// P50, P95, P99 are latency percentiles across the measured
	// messages (ms), 0 when none was measured.
	P50, P95, P99 float64
	// Loads is the per-worker count of measured completions: messages
	// completed after the first MeasureAfter, so sum(Loads) is
	// Completed − MeasureAfter and the warm-up is left out.
	Loads []int64
	// Imbalance is the load imbalance I over Loads: the measured part
	// of the run, not the whole stream when MeasureAfter > 0 (Figs
	// 13–14 set it to m/5, so theirs covers the last 80%).
	Imbalance float64
	// PeakQueue is the largest backlog observed at any single worker.
	PeakQueue int
	// Agg reports the reducer-side aggregation cost (zero unless
	// Config.AggWindow was set).
	Agg aggregation.ReducerStats
	// AggReplication is the measured state replication factor: distinct
	// (window, key, worker) triples per distinct (window, key) pair.
	AggReplication float64
	// AggTotal is the sum of all final counts; with aggregation enabled
	// it equals Completed (window close is exact).
	AggTotal int64
	// ReducerUtil is the MOST LOADED reducer shard's utilization: its
	// merge service time over the simulated makespan (including the
	// end-of-stream drain). Near 1 means that shard is saturated and
	// throughput is reducer-bound; sharding (Config.AggShards) spreads
	// the load and moves this down. 0 when aggregation is off.
	ReducerUtil float64
	// ReducerUtilMean is the mean utilization across the reducer shards
	// (equal to ReducerUtil when AggShards == 1). The max/mean gap
	// measures how evenly the digest sharding spread the merge load.
	ReducerUtilMean float64
	// ReducerShardUtil is each reducer shard's utilization, indexed by
	// shard. nil when aggregation is off.
	ReducerShardUtil []float64
	// ReducerPeakQueue is the largest backlog (unmerged partials,
	// including the one in service) any single reducer shard ever held.
	ReducerPeakQueue int
	// LinkRetransmits is how many partials arrived into a link outage
	// window and had to be retransmitted after the link recovered. 0
	// unless Config.LinkOutagePeriod was set.
	LinkRetransmits int64
	// LinkOutageWaitMs is the total extra arrival delay (ms) those
	// retransmissions cost across all links.
	LinkOutageWaitMs float64
}

// Event kinds.
const (
	evEmit = iota // a source attempts to emit its next message
	evDone        // a worker finishes its current message
)

type event struct {
	t    float64
	seq  int64 // tie-breaker for determinism
	kind int8
	idx  int32 // source index (evEmit) or worker index (evDone)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type pendingMsg struct {
	emitTime float64
	src      int32
	// Aggregation fields (populated only when Config.AggWindow > 0).
	window int64
	dig    hashing.KeyDigest
	val    int64 // the merger's sample (see stream.Source)
	key    string
}

// worker is one FIFO service station.
type worker struct {
	queue []pendingMsg
	head  int
	busy  bool
	count int64
	sum   float64 // latency sum for exact mean
	// Aggregation state: the worker's partial tables and the simulated
	// time before which it cannot start its next service (window-close
	// flush cost).
	acc     *aggregation.Accumulator
	readyAt float64
}

// reducerStation models ONE reducer shard as a deterministic FIFO
// server: each admitted partial occupies it for mergeCost, the input
// queue holds at most cap partials (counting the one in service), and
// a producer admitting into a full queue waits for the server to
// drain. Because service is deterministic and FIFO, the whole station
// reduces to a closed-form recurrence over busyUntil — no events
// needed — while remaining exact. The sharded reduce stage is just R
// of these, one per digest shard.
type reducerStation struct {
	mergeCost float64
	headroom  float64 // (cap−1)·mergeCost: admission waits while backlog ≥ cap
	busyUntil float64 // sim time at which every admitted partial is merged
	busy      float64 // total merge service admitted (ms)
	peak      int     // backlog high-water mark in partials
}

func newReducerStation(mergeCost float64, queueLen int) reducerStation {
	return reducerStation{mergeCost: mergeCost, headroom: float64(queueLen-1) * mergeCost}
}

// admitOne hands the station one partial that became ready at time t
// (already serialized by the flushing worker): the producer blocks
// while the station's queue is full, then enqueues. It returns the
// time the producer is released — t, or later if backpressure stalled
// it. Per-partial admission is what lets one worker's flush interleave
// partials across several shard stations in serialization order.
func (r *reducerStation) admitOne(t float64) float64 {
	if wait := r.busyUntil - r.headroom; wait > t {
		t = wait // queue full: block until a slot drains
	}
	start := t
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + r.mergeCost
	r.busy += r.mergeCost
	if backlog := int((r.busyUntil-t)/r.mergeCost + 0.5); backlog > r.peak {
		r.peak = backlog
	}
	return t
}

func (w *worker) push(m pendingMsg) { w.queue = append(w.queue, m) }
func (w *worker) pop() pendingMsg   { m := w.queue[w.head]; w.head++; w.compact(); return m }
func (w *worker) backlog() int      { return len(w.queue) - w.head }
func (w *worker) compact() {
	if w.head > 1024 && w.head*2 >= len(w.queue) {
		n := copy(w.queue, w.queue[w.head:])
		w.queue = w.queue[:n]
		w.head = 0
	}
}

// Run simulates the deployment until the generator (or Messages cap) is
// exhausted and every in-flight message is processed.
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
	limit := src.Planned()
	tel := newSimTelemetry(cfg, parts)
	// The event loop consumes one message per emit event from a cursor
	// over 512-message slabs drawn from src; each message's payload
	// sample rides along when the run aggregates.
	keys := make([]string, 512)
	var vals []int64
	if cfg.AggWindow > 0 {
		vals = make([]int64, len(keys))
	}
	var pos, drawn int

	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		workers[i] = &worker{}
		if cfg.AggWindow > 0 {
			workers[i].acc = aggregation.NewAccumulatorMerger(i, cfg.AggMerger)
		}
	}

	// Aggregation reduce stage: AggShards modeled service stations (see
	// reducerStation), one per digest shard, behind an
	// aggregation.Driver that closes each shard's slice of a window on
	// completeness and announces each window the stream enters. The
	// merged CONTENT is folded in immediately — counters and window
	// close points are simulated-time-independent — but the merge COST
	// occupies each shard station's clock, and a full shard queue blocks
	// the flushing worker.
	var (
		drv      *aggregation.Driver
		aggBuf   []aggregation.Partial
		stations []reducerStation
		links    *linkDelays
	)
	if cfg.AggWindow > 0 {
		drv = aggregation.NewShardedDriver(cfg.Workers, cfg.AggShards, cfg.AggWindow, limit, cfg.AggMerger)
		if tel != nil {
			drv.ObserveLive(tel.reg, tel.base...)
		}
		stations = make([]reducerStation, cfg.AggShards)
		for r := range stations {
			stations[r] = newReducerStation(cfg.AggMergeCost, cfg.AggQueueLen)
		}
		links = newLinkDelays(cfg)
	}
	// flushWorker drains worker w's windows below `before` into the
	// reduce stage at simulated time `now` and returns the time the
	// worker is released: it serializes one partial every AggFlushCost,
	// pays the (w, shard) link's hop delay when the delay model is on,
	// and admits each partial into ITS digest shard's station, absorbing
	// any backpressure stall while that shard's queue is full. The link
	// delay is charged as a later arrival inside the station recurrence,
	// so the whole hop stays closed-form and event-free.
	flushWorker := func(w int, wk *worker, now float64, before int64) float64 {
		aggBuf = wk.acc.FlushBefore(before, aggBuf[:0])
		drv.Merge(aggBuf, cfg.OnFinal)
		t := now
		for i := range aggBuf {
			t += cfg.AggFlushCost // serialize partial i at the worker
			r := aggregation.ShardFor(aggBuf[i].Digest, cfg.AggShards)
			if links != nil {
				t = stations[r].admitOne(links.deliver(w, r, t))
			} else {
				t = stations[r].admitOne(t)
			}
			tel.noteAdmit(r, cfg.AggMergeCost, stations[r].peak)
		}
		// Anything beyond pure serialization time is admission stall:
		// the worker was blocked on a full shard queue (backpressure) or,
		// with the delay model on, waiting out the wire.
		tel.noteFlush(t - now - cfg.AggFlushCost*float64(len(aggBuf)))
		return t
	}
	svc := func(w int) float64 {
		t := cfg.ServiceTime
		if f, ok := cfg.SlowFactor[w]; ok {
			t *= f
		}
		return t
	}

	inflight := make([]int, cfg.Sources)
	blocked := make([]bool, cfg.Sources)
	lat := telemetry.NewHistogram() // ns: ms × 1e6

	var (
		h            eventHeap
		seq          int64
		emitted      int64
		completed    int64
		now          float64
		lastDone     float64
		measureStart float64
		peakQueue    int
		announced    int64 // the last window the driver announced
		// The slab of one each emit routes, made once so routing it
		// allocates nothing.
		one = make([]string, 1)
		dig = make([]aggregation.KeyDigest, 1)
		dst = make([]int, 1)
	)
	// tickIdle is the watermark tick for workers with no traffic: when
	// the global emission sequence enters a new window, every idle
	// worker flushes its closed windows immediately instead of at end of
	// stream (busy workers flush on their own watermark advance or when
	// they drain — see evDone). Per-worker arrival order here equals
	// emission order, so an idle worker provably holds every message it
	// will ever get for windows < announced: the tick flush is complete,
	// never a fragment. The flush cost still lands on the worker's clock
	// (readyAt), exactly as a traffic-driven flush would.
	tickIdle := func() {
		for i, wk := range workers {
			if wk.busy || wk.acc.OpenWindows() == 0 {
				continue
			}
			start := now
			if wk.readyAt > start {
				start = wk.readyAt
			}
			if t := flushWorker(i, wk, start, announced); t > wk.readyAt {
				wk.readyAt = t
			}
		}
	}
	schedule := func(t float64, kind int8, idx int32) {
		seq++
		heap.Push(&h, event{t: t, seq: seq, kind: kind, idx: idx})
	}
	for s := 0; s < cfg.Sources; s++ {
		// Stagger source start times to avoid a synchronized burst.
		schedule(float64(s)*cfg.EmitInterval/float64(cfg.Sources), evEmit, int32(s))
	}

	for h.Len() > 0 {
		e := heap.Pop(&h).(event)
		now = e.t
		switch e.kind {
		case evEmit:
			s := int(e.idx)
			if emitted >= limit {
				break // stream exhausted; source retires
			}
			if inflight[s] >= cfg.Window {
				blocked[s] = true
				break // resumes on next ack
			}
			if pos == drawn {
				// pos rewinds before a drained draw breaks out: the next
				// emit event must draw again, not index past the slab.
				drawn, _ = src.Draw(keys, vals)
				pos = 0
				if drawn == 0 {
					break
				}
			}
			// Hash-once: routing a slab of one performs the key's single
			// byte scan, and the digest it hands back picks the reducer
			// shard and travels with the message into the worker's
			// partial tables.
			one[0] = keys[pos]
			parts[s].RouteBatchDigests(one, dig, dst)
			w := dst[0]
			pm := pendingMsg{emitTime: now, src: e.idx}
			if cfg.AggWindow > 0 {
				pm.window = emitted / cfg.AggWindow
				pm.dig = dig[0]
				pm.key = one[0]
				pm.val = vals[pos]
				// Count the emission toward its shard's completeness
				// threshold, and tick idle workers when the driver
				// announces that the stream entered a new window.
				if cw, ok := drv.ObserveEmits(emitted, dig); ok {
					announced = cw
					tickIdle()
				}
			}
			emitted++
			pos++
			inflight[s]++
			wk := workers[w]
			// The queue head is the in-service message while busy.
			wk.push(pm)
			if b := wk.backlog(); b > peakQueue {
				peakQueue = b
				tel.notePeakQueue(peakQueue)
			}
			tel.noteEmit(s, w, wk.backlog(), now)
			if !wk.busy {
				wk.busy = true
				start := now
				if wk.readyAt > start {
					start = wk.readyAt
				}
				schedule(start+svc(w), evDone, int32(w))
			}
			schedule(now+cfg.EmitInterval, evEmit, e.idx)
		case evDone:
			w := int(e.idx)
			wk := workers[w]
			m := wk.pop()
			completed++
			tel.noteDone(w, wk.backlog(), now)
			if completed == cfg.MeasureAfter {
				measureStart = now
			}
			if completed > cfg.MeasureAfter {
				d := now - m.emitTime
				wk.count++
				wk.sum += d
				lat.Observe(d * 1e6)
				lastDone = now
			}
			if cfg.AggWindow > 0 {
				// Two-phase aggregation: fold the message into its window's
				// partial table; when the watermark advances (one window of
				// slack, matching internal/dspe), flush — the worker is
				// released only once its last partial is serialized AND
				// admitted into its reducer shard's bounded queue.
				if wm, ok := wk.acc.Watermark(); ok && m.window > wm {
					if t := flushWorker(w, wk, now, m.window-1); t > now {
						wk.readyAt = t
					}
				}
				wk.acc.AddSample(m.window, m.dig, m.key, 1, m.val)
			}
			// Ack frees the source's window slot.
			s := int(m.src)
			inflight[s]--
			if blocked[s] {
				blocked[s] = false
				schedule(now, evEmit, m.src)
			}
			if wk.backlog() > 0 {
				start := now
				if wk.readyAt > start {
					start = wk.readyAt
				}
				schedule(start+svc(w), evDone, e.idx)
			} else {
				wk.busy = false
				// Watermark tick, deferred: a worker that was busy when the
				// stream entered a new window flushes its closed windows the
				// moment it drains (it now provably holds its complete share
				// of every window < announced), instead of waiting for its
				// own next tuple — which for a trickle worker never comes.
				if cfg.AggWindow > 0 && wk.acc.OpenWindows() > 0 {
					start := now
					if wk.readyAt > start {
						start = wk.readyAt
					}
					if t := flushWorker(w, wk, start, announced); t > wk.readyAt {
						wk.readyAt = t
					}
				}
			}
		}
	}

	tel.flushRoutes()
	res := Result{
		Algorithm: cfg.Algorithm,
		Completed: completed,
		Duration:  lastDone - measureStart,
		Loads:     make([]int64, cfg.Workers),
		PeakQueue: peakQueue,
	}
	if lat.Count() > 0 {
		res.P50 = lat.Quantile(0.50) / 1e6
		res.P95 = lat.Quantile(0.95) / 1e6
		res.P99 = lat.Quantile(0.99) / 1e6
	}
	if cfg.AggWindow > 0 {
		// End of stream: every worker flushes its remaining windows
		// (completeness-based closing means nothing closes early while
		// another worker still holds part of a window), then the driver
		// closes any remainder. The drain still occupies the shard
		// stations' clocks, so the utilization denominator extends to
		// the last shard's finish.
		for i, wk := range workers {
			start := now
			if wk.readyAt > start {
				start = wk.readyAt
			}
			flushWorker(i, wk, start, 1<<62)
		}
		drv.Finish(cfg.OnFinal)
		res.Agg = drv.Stats()
		res.AggReplication = drv.Replication()
		res.AggTotal = drv.Total()
		makespan := now
		for r := range stations {
			if stations[r].busyUntil > makespan {
				makespan = stations[r].busyUntil
			}
		}
		res.ReducerShardUtil = make([]float64, len(stations))
		if makespan > 0 {
			for r := range stations {
				u := stations[r].busy / makespan
				res.ReducerShardUtil[r] = u
				res.ReducerUtilMean += u / float64(len(stations))
				if u > res.ReducerUtil {
					res.ReducerUtil = u
				}
			}
		}
		for r := range stations {
			if stations[r].peak > res.ReducerPeakQueue {
				res.ReducerPeakQueue = stations[r].peak
			}
		}
		if links != nil {
			res.LinkRetransmits = links.retransmits
			res.LinkOutageWaitMs = links.outageWait
		}
	}
	for i, wk := range workers {
		res.Loads[i] = wk.count
		if wk.count > 0 {
			if avg := wk.sum / float64(wk.count); avg > res.MaxAvgLatency {
				res.MaxAvgLatency = avg
			}
		}
	}
	res.Imbalance = metrics.Imbalance(res.Loads)
	if measured := completed - cfg.MeasureAfter; measured > 0 && res.Duration > 0 {
		res.Throughput = float64(measured) / (res.Duration / 1000)
	}
	gen.Reset()
	if err := src.Err(); err != nil {
		return Result{}, fmt.Errorf("eventsim: %w", err)
	}
	return res, nil
}

package dspe

// ringplane.go is the lock-free dataplane behind Config.Dataplane ==
// DataplaneRing. The topology is the same as the channel plane's —
// spouts route a keyed stream into bolts, bolts flush windowed partials
// toward R reducer shards — but every edge is a single-producer/
// single-consumer ring buffer (internal/ring) instead of a buffered
// channel, and the shard hop runs through a worker-side combiner tree:
//
//	spout s ──ring──▶ bolt w ──ring──▶ [combiner node] ──ring──▶ shard root r
//
// What changes, and why it is faster:
//
//   - Tuples live IN the rings. A spout writes each tuple into a slot
//     of its (spout, bolt) ring and the bolt reads it there; no slab is
//     ever allocated, so the steady state allocates nothing on the
//     whole tuple path (the channel plane allocates one slab per
//     (batch, destination) plus one per flush and per tick).
//   - Acks are atomic. The channel plane pays two channel operations
//     per message on the in-flight window (acquire at the spout,
//     release at the bolt); here each source has one atomic in-flight
//     counter that the spout bumps per slab and bolts decrement per
//     consumed batch.
//   - Partials are pre-merged host-side. Bolts push their flushed
//     partials into a per-shard combiner tree (fan-in combinerFanIn);
//     interior nodes fold same-key partials opportunistically and the
//     per-shard root buffers to window completeness, so the shard's
//     driver receives exactly one combined partial per (window, key)
//     instead of one per (window, key, worker) — the reduce stage's
//     merge traffic drops from the replication factor to 1.
//
// Everything observable is pinned to the channel plane: window ids,
// completeness thresholds (ObserveEmits before any tuple of the slab is
// visible), hash-once digest carry, and exact replication accounting
// (bolts observe each (window, key, worker) triple via ObserveReplica
// before its partial enters the tree; combined partials carry
// CombinedWorker and are not re-counted). Finals and replication
// factors are bit-equal across dataplanes.
//
// Deadlock freedom: the edge graph is acyclic and every consumer drains
// unconditionally (bolts never wait on downstream to consume upstream;
// roots never block at all), so a blocked producer always has a live
// consumer making space.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/metrics"
	"slb/internal/ring"
	"slb/internal/stream"
)

// combinerFanIn is the arity of the worker-side combiner tree: bolts
// are grouped combinerFanIn to an interior node. With Workers ≤
// combinerFanIn the tree is just the per-shard root.
const combinerFanIn = 8

// partialRingCap sizes the combiner-tree edges: large enough that a
// whole window flush usually publishes without waiting, small enough to
// keep the arena resident.
const partialRingCap = 1024

// latSampleMask subsamples the per-tuple latency instrumentation on the
// ring plane: one tuple in 8 is clocked and fed to the quantile sketch.
// The percentiles are statistical estimates either way (the sketch
// subsamples internally past its capacity); clocking every tuple would
// spend two nanotime reads per message on the plane whose point is raw
// per-message cost. Loads and Completed still count every tuple.
const latSampleMask = 7

// ringCapFor sizes the (spout, bolt) rings: at least two full in-flight
// windows so a spout is never throttled by ring capacity before the ack
// window throttles it, and at least two slabs.
func ringCapFor(cfg Config) int {
	c := 2 * cfg.Window
	if b := 2 * cfg.Batch; b > c {
		c = b
	}
	if c < 64 {
		c = 64
	}
	return c
}

// backoff yields after a fruitless poll, escalating from Gosched to a
// short sleep so idle goroutines (a bolt the partitioner starves, a
// shard between flushes) do not burn a core. Callers reset *spins to 0
// on progress.
func backoff(spins *int) {
	*spins++
	if *spins < 256 {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}

// pushOne blocks until v is in the ring (the edge graph is acyclic, so
// the consumer is always draining).
func pushOne[T any](q *ring.SPSC[T], v T) {
	spins := 0
	for !q.TryPush(v) {
		backoff(&spins)
	}
}

// pushSlab blocks until every element of xs is published, in order,
// copying directly into granted ring slots.
func pushSlab[T any](q *ring.SPSC[T], xs []T) {
	spins := 0
	for len(xs) > 0 {
		g := q.Grant(len(xs))
		if g == nil {
			backoff(&spins)
			continue
		}
		spins = 0
		n := copy(g, xs)
		q.Publish(n)
		xs = xs[n:]
	}
}

// pushSlabTimed is pushSlab returning the time spent backed off on a
// full ring — the producer-visible publish stall. The clock runs only
// across backoff calls, so an uncontended publish costs no time reads;
// spouts use it when telemetry is on.
func pushSlabTimed[T any](q *ring.SPSC[T], xs []T) (stall time.Duration) {
	spins := 0
	for len(xs) > 0 {
		g := q.Grant(len(xs))
		if g == nil {
			t0 := time.Now()
			backoff(&spins)
			stall += time.Since(t0)
			continue
		}
		spins = 0
		n := copy(g, xs)
		q.Publish(n)
		xs = xs[n:]
	}
	return stall
}

// inflightCounter is one source's atomic in-flight window, padded so
// the counters of different sources never share a cache line.
type inflightCounter struct {
	n atomic.Int64
	_ [56]byte
}

// runRing executes the topology on the ring dataplane. cfg has
// defaults applied; parts are the per-source partitioners; limit is the
// message cap.
func runRing(gen stream.Generator, cfg Config, parts []core.Partitioner, limit int64) (Result, error) {
	shards := cfg.AggShards
	agg := cfg.AggWindow > 0
	pt := newPlaneTelemetry(cfg)

	// Spout→bolt edges: one SPSC ring per (source, bolt) pair. The ring
	// slots are the tuple arena — tuples are written and read in place.
	in := make([][]*ring.SPSC[tuple], cfg.Sources)
	for s := range in {
		in[s] = make([]*ring.SPSC[tuple], cfg.Workers)
		for w := range in[s] {
			in[s][w] = ring.New[tuple](ringCapFor(cfg))
		}
	}
	pt.observeRingQueues(in)
	// Per-source in-flight windows: the spout adds per slab (after
	// waiting for room), bolts subtract per consumed batch. Replaces the
	// channel plane's two-channel-ops-per-message semaphore.
	inflight := make([]inflightCounter, cfg.Sources)

	svcFor := func(w int) time.Duration {
		d := cfg.ServiceTime
		if f, ok := cfg.SlowFactor[w]; ok {
			d = time.Duration(float64(d) * f)
		}
		return d
	}

	// Combiner tree: per shard, bolts feed interior nodes (groups of
	// combinerFanIn) which feed the root; with one group the bolts feed
	// the root directly. boltOut[w][r] is bolt w's edge into shard r's
	// tree; rootIn[r] are the rings shard r's root drains.
	var (
		sd         *aggregation.ShardedDriver
		boltOut    [][]*ring.SPSC[aggregation.Partial]
		rootIn     [][]*ring.SPSC[aggregation.Partial]
		reduceBusy []time.Duration
		reduceWG   sync.WaitGroup
		interWG    sync.WaitGroup
	)
	groups := 0
	if agg {
		sd = aggregation.NewShardedDriver(cfg.Workers, shards, cfg.AggWindow, limit, cfg.AggMerger)
		pt.observeReduce(sd)
		reduceBusy = make([]time.Duration, shards)
		fan := &finalFanIn{user: cfg.OnFinal, shards: shards}
		boltOut = make([][]*ring.SPSC[aggregation.Partial], cfg.Workers)
		for w := range boltOut {
			boltOut[w] = make([]*ring.SPSC[aggregation.Partial], shards)
			for r := range boltOut[w] {
				boltOut[w][r] = ring.New[aggregation.Partial](partialRingCap)
			}
		}
		groups = (cfg.Workers + combinerFanIn - 1) / combinerFanIn
		rootIn = make([][]*ring.SPSC[aggregation.Partial], shards)
		if groups == 1 {
			// Degenerate tree: every bolt feeds the root directly.
			for r := range rootIn {
				rootIn[r] = make([]*ring.SPSC[aggregation.Partial], cfg.Workers)
				for w := 0; w < cfg.Workers; w++ {
					rootIn[r][w] = boltOut[w][r]
				}
			}
		} else {
			// Interior nodes: node (r, g) drains bolts [g·fanIn, …) for
			// shard r, folds them through a CombineTable, and flushes
			// combined partials up to the root on watermark advance.
			for r := range rootIn {
				rootIn[r] = make([]*ring.SPSC[aggregation.Partial], groups)
				for g := 0; g < groups; g++ {
					rootIn[r][g] = ring.New[aggregation.Partial](partialRingCap)
				}
			}
			for r := 0; r < shards; r++ {
				for g := 0; g < groups; g++ {
					lo := g * combinerFanIn
					hi := lo + combinerFanIn
					if hi > cfg.Workers {
						hi = cfg.Workers
					}
					ins := make([]*ring.SPSC[aggregation.Partial], 0, hi-lo)
					for w := lo; w < hi; w++ {
						ins = append(ins, boltOut[w][r])
					}
					interWG.Add(1)
					go func(ins []*ring.SPSC[aggregation.Partial], out *ring.SPSC[aggregation.Partial]) {
						defer interWG.Done()
						combineNode(cfg.AggMerger, ins, out)
					}(ins, rootIn[r][g])
				}
			}
		}
		for r := 0; r < shards; r++ {
			reduceWG.Add(1)
			go func(r int) {
				defer reduceWG.Done()
				reduceBusy[r] = shardRoot(cfg, sd, r, rootIn[r], fan, pt)
			}(r)
		}
	}

	stats := make([]boltStats, cfg.Workers)
	latSampled := make([]int64, cfg.Workers)
	boltPartials := make([]int64, cfg.Workers)
	var bolts sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		bolts.Add(1)
		go func(w int) {
			defer bolts.Done()
			st := &stats[w]
			st.lat = metrics.NewQuantiles(1 << 14)
			var acc *aggregation.Accumulator
			var scratch []aggregation.Partial
			var pendP [][]aggregation.Partial
			if agg {
				acc = aggregation.NewAccumulatorMerger(w, cfg.AggMerger)
				pendP = make([][]aggregation.Partial, shards)
			}
			// flushClosed closes windows below `before` and pushes each
			// partial into its shard's combiner tree — after observing its
			// (window, key, worker) replica triple, so the accounting never
			// lags a partial whose worker identity the tree merges away.
			// The flush is staged per shard and published with one
			// Grant/Publish pair per shard (a window flush carries many
			// partials; per-partial pushes would pay the ring's atomics on
			// each). The staging buffers are recycled across flushes.
			flushClosed := func(before int64) {
				scratch = acc.FlushBefore(before, scratch[:0])
				pt.addBoltPartials(len(scratch))
				for i := range scratch {
					p := &scratch[i]
					r := aggregation.ShardFor(p.Digest, shards)
					sd.ObserveReplica(r, p.Window, p.Digest, p.Worker)
					pendP[r] = append(pendP[r], *p)
				}
				for r := range pendP {
					if len(pendP[r]) > 0 {
						pushSlab(boltOut[w][r], pendP[r])
						pendP[r] = pendP[r][:0]
					}
				}
			}
			drained := make([]bool, cfg.Sources)
			remaining := cfg.Sources
			spins := 0
			for remaining > 0 {
				progressed := false
				for s := 0; s < cfg.Sources; s++ {
					if drained[s] {
						continue
					}
					q := in[s][w]
					a := q.Acquire(cfg.Batch)
					if a == nil {
						if q.Drained() {
							drained[s] = true
							remaining--
							progressed = true
						}
						continue
					}
					acks := 0
					for i := range a {
						tp := &a[i]
						if tp.src < 0 {
							// Watermark tick: flush with one window of slack,
							// exactly as the channel plane. No ack — ticks do
							// not occupy in-flight window slots.
							if acc != nil {
								flushClosed(tp.window - 1)
							}
							continue
						}
						simulateWork(svcFor(w), cfg.Spin)
						if acc != nil {
							if wm, ok := acc.Watermark(); ok && tp.window > wm {
								flushClosed(tp.window - 1)
							}
							acc.AddSample(tp.window, tp.dig, tp.key, 1, tp.val)
						}
						if st.count&latSampleMask == 0 {
							lat := time.Since(tp.emitted)
							st.lat.Add(float64(lat))
							st.sum += lat
							latSampled[w]++
						}
						st.count++
						acks++
					}
					q.Release(len(a))
					if acks > 0 {
						inflight[s].n.Add(int64(-acks))
						pt.addBoltMsgs(w, acks)
					}
					progressed = true
				}
				if progressed {
					spins = 0
				} else if pt != nil {
					// A fruitless full pass: the bolt is input-starved. The
					// backoff (the only non-progress path) is what gets timed.
					t0 := time.Now()
					backoff(&spins)
					pt.addAcquireStall(w, time.Since(t0))
				} else {
					backoff(&spins)
				}
			}
			if acc != nil {
				flushClosed(1 << 62)
				boltPartials[w] = acc.Flushed()
				for r := range boltOut[w] {
					boltOut[w][r].Close()
				}
			}
		}(w)
	}

	nextSlab, _ := slabSource(gen, limit)
	genVals := stream.Values(gen) != nil
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
			if agg {
				digs = make([]core.KeyDigest, cfg.Batch)
				// Sampling contract: AggValue hook > recorded generator
				// values > constant 1 (see Config.AggValue).
				if cfg.AggValue == nil && genVals {
					vals = make([]int64, cfg.Batch)
				}
			}
			// Reused per-destination staging: the slab is grouped by bolt
			// and each group published with ONE Grant/Publish pair, so the
			// ring's atomic traffic amortizes over the group instead of
			// being paid per tuple. The buffers are allocated once and
			// recycled — nothing on this path allocates per slab.
			pend := make([][]tuple, cfg.Workers)
			for w := range pend {
				pend[w] = make([]tuple, 0, cfg.Batch)
			}
			for {
				n, base := nextSlab(keys, vals)
				if n == 0 {
					break
				}
				// Wait for the slab's in-flight slots (Batch ≤ Window, so
				// this always clears once acks drain). Only this goroutine
				// adds, so load-then-add cannot overshoot.
				spins := 0
				var t0 time.Time
				if pt != nil {
					t0 = time.Now()
				}
				for inflight[s].n.Load() > int64(cfg.Window-n) {
					backoff(&spins)
				}
				if pt != nil {
					pt.addAckWait(s, time.Since(t0))
					t0 = time.Now()
				}
				inflight[s].n.Add(int64(n))
				if agg {
					core.RouteBatchDigests(p, keys[:n], digs, dsts)
					pt.recordRoute(s, p, n, time.Since(t0))
					// Thresholds before visibility, as in the channel plane.
					sd.ObserveEmits(base, digs[:n])
					if cw := (base + int64(n) - 1) / cfg.AggWindow; cw > tickedWindow.Load() {
						for {
							seen := tickedWindow.Load()
							if cw <= seen {
								break
							}
							if tickedWindow.CompareAndSwap(seen, cw) {
								// The winner broadcasts through its OWN rings
								// (ticks are tuples in the arena — the SPSC
								// contract holds and nothing is allocated).
								for w := range in[s] {
									pushOne(in[s][w], tuple{src: -1, window: cw})
								}
								break
							}
						}
					}
				} else {
					core.RouteBatch(p, keys[:n], dsts)
					pt.recordRoute(s, p, n, time.Since(t0))
				}
				now := time.Now()
				for i := 0; i < n; i++ {
					tp := tuple{key: keys[i], emitted: now, src: int32(s)}
					if agg {
						tp.window = (base + int64(i)) / cfg.AggWindow
						tp.dig = digs[i]
						tp.val = 1
						if cfg.AggValue != nil {
							tp.val = cfg.AggValue(keys[i], base+int64(i))
						} else if vals != nil {
							tp.val = vals[i]
						}
					}
					pend[dsts[i]] = append(pend[dsts[i]], tp)
				}
				var stall time.Duration
				for w := range pend {
					if len(pend[w]) > 0 {
						if pt != nil {
							stall += pushSlabTimed(in[s][w], pend[w])
						} else {
							pushSlab(in[s][w], pend[w])
						}
						pend[w] = pend[w][:0]
					}
				}
				pt.addPublishStall(s, stall)
			}
			for w := range in[s] {
				in[s][w].Close()
			}
		}(s)
	}

	spouts.Wait()
	bolts.Wait()
	elapsed := time.Since(start)
	total := elapsed
	if agg {
		interWG.Wait()
		reduceWG.Wait()
		total = time.Since(start)
	}

	res := Result{
		Algorithm: cfg.Algorithm,
		Elapsed:   elapsed,
		Loads:     make([]int64, cfg.Workers),
	}
	if agg {
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
		if latSampled[w] > 0 {
			if avg := st.sum / time.Duration(latSampled[w]); avg > res.MaxAvgLatency {
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

// combineNode is one interior combiner-tree node: it drains its bolts'
// partial rings, folds same-(window, key) partials through the merge
// operator, and flushes the combined survivors of windows below its
// observed watermark up to the root. Flushing "too early" (a window a
// lagging bolt will still flush into) is harmless — stragglers form a
// second combined partial and the root merges it like any other.
func combineNode(m aggregation.Merger, ins []*ring.SPSC[aggregation.Partial], out *ring.SPSC[aggregation.Partial]) {
	ct := aggregation.NewCombineTable(m)
	drained := make([]bool, len(ins))
	remaining := len(ins)
	maxW := int64(-1 << 62)
	var scratch []aggregation.Partial
	spins := 0
	for remaining > 0 {
		progressed := false
		for i, q := range ins {
			if drained[i] {
				continue
			}
			a := q.Acquire(256)
			if a == nil {
				if q.Drained() {
					drained[i] = true
					remaining--
					progressed = true
				}
				continue
			}
			for j := range a {
				if a[j].Window > maxW {
					maxW = a[j].Window
				}
				ct.Fold(&a[j])
			}
			q.Release(len(a))
			progressed = true
		}
		if !progressed {
			backoff(&spins)
			continue
		}
		spins = 0
		if scratch = ct.FlushBefore(maxW, scratch[:0]); len(scratch) > 0 {
			pushSlab(out, scratch)
		}
	}
	if scratch = ct.FlushAll(scratch[:0]); len(scratch) > 0 {
		pushSlab(out, scratch)
	}
	out.Close()
}

// shardRoot is shard r's reduce goroutine: the combiner-tree root. It
// drains its input rings into a completeness-aware Combiner, hands the
// shard's driver each window the moment it is provably complete, and
// closes the shard at end of stream. The simulated per-partial merge
// cost (Config.AggMergeCost) is charged per combined partial the driver
// merges — the shard hop's actual traffic — using the same ≥ 1 ms
// debt-settling discipline as the channel plane. Returns the busy time
// (folding, flushing, merging) for the utilization report.
func shardRoot(cfg Config, sd *aggregation.ShardedDriver, r int, ins []*ring.SPSC[aggregation.Partial], fan *finalFanIn, pt *planeTelemetry) time.Duration {
	comb := aggregation.NewCombiner(sd, r)
	onFinal, deliver := fan.shard()
	drained := make([]bool, len(ins))
	remaining := len(ins)
	var busy time.Duration
	var debt time.Duration
	var charged int64   // combined partials already charged to the debt
	var published int64 // combined partials already published to telemetry
	settle := func(threshold time.Duration) {
		if cfg.AggMergeCost > 0 {
			if d := comb.Out() - charged; d > 0 {
				debt += cfg.AggMergeCost * time.Duration(d)
				charged = comb.Out()
			}
		}
		if debt > threshold {
			s0 := time.Now()
			simulateWork(debt, cfg.Spin)
			debt -= time.Since(s0)
		}
	}
	spins := 0
	for remaining > 0 {
		progressed := false
		for i, q := range ins {
			if drained[i] {
				continue
			}
			a := q.Acquire(256)
			if a == nil {
				if q.Drained() {
					drained[i] = true
					remaining--
					progressed = true
				}
				continue
			}
			t0 := time.Now()
			for j := range a {
				comb.Fold(&a[j])
			}
			q.Release(len(a))
			d := time.Since(t0)
			busy += d
			pt.addReduce(r, 0, d)
			progressed = true
		}
		if !progressed {
			backoff(&spins)
			continue
		}
		spins = 0
		t0 := time.Now()
		comb.FlushComplete(onFinal)
		deliver()
		settle(time.Millisecond)
		d := time.Since(t0)
		busy += d
		// Published partial count follows what the DRIVER merged
		// (comb.Out() — combined partials past the root's pre-merge), so
		// reduce_partials_total/bolt_partials_total is the tree's
		// end-to-end pre-merge ratio.
		pt.addReduce(r, int(comb.Out()-published), d)
		published = comb.Out()
	}
	t0 := time.Now()
	comb.Finish(onFinal)
	deliver()
	settle(0)
	d := time.Since(t0)
	busy += d
	pt.addReduce(r, int(comb.Out()-published), d)
	return busy
}

package dspe

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/metrics"
	"slb/internal/ring"
	"slb/internal/stream"
	"slb/internal/telemetry"
	"slb/internal/transport"
)

// transportplane.go is the engine: the spout → bolt → reducer-shard
// topology written once, against transport.Link (see the package doc
// for the shape and for how the goroutines wait).
//
// Over TCP the fixed default window (100) is ack-latency bound: each
// burst waits out a loopback round trip before the next can start. When
// the caller left Config.Window at its default, the spout therefore
// grows its window ADAPTIVELY: every time it finds itself blocked on
// acks with all links flushed, it doubles the window, up to
// adaptiveWindowMax — converging on a depth where the pipe stays full
// without the caller having to know the link's bandwidth-delay product.
// An explicitly set Window is always honored as a fixed cap (the
// `transport` experiment pins Window=4096 on both backends so its A/B
// stays one). Window depth never changes results: each spout routes its
// own stream deterministically, so finals and replication stay
// bit-equal regardless of ack timing.

// adaptiveWindowMax caps the adaptive ack window's growth; past this
// depth a loopback link is bandwidth- not latency-bound and deeper
// windows only add buffer bloat.
const adaptiveWindowMax = 8192

// partialRingCap sizes the bolt→shard links: large enough that a whole
// window flush usually publishes without waiting, small enough to keep
// the arena resident.
const partialRingCap = 1024

// latSampleMask subsamples the per-tuple latency instrumentation: one
// tuple in 8 is clocked at the spout and recorded in the bolt's latency
// histogram; clocking every tuple would spend two nanotime reads per
// message. Loads and Completed still count every tuple.
const latSampleMask = 7

// ringCapFor sizes the spout→bolt links: at least two full in-flight
// windows so a spout is never throttled by link capacity before the ack
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

// ackWindow is one source's in-flight count plus the level its spout is
// waiting for it to fall to. A bolt acks with n.Add(-k) and wakes the
// spout only if the new value is at or below wakeAt — not on every ack
// batch, most of which would find the window still too full and send the
// spout straight back to sleep. The spout stores wakeAt before it arms,
// so (atomics being sequentially consistent) an ack either sees the new
// level or is seen by the spout's re-check. Padded so the counters of
// different sources never share a cache line.
type ackWindow struct {
	n      atomic.Int64
	wakeAt atomic.Int64
	_      [48]byte
}

// parkers returns n fresh wait primitives, one per goroutine of a stage.
func parkers(n int) []*ring.Parker {
	ps := make([]*ring.Parker, n)
	for i := range ps {
		ps[i] = ring.NewParker()
	}
	return ps
}

// partialMsg packs one bolt partial into the wire shape.
func partialMsg(p *aggregation.Partial) transport.Msg {
	return transport.Msg{
		Dig:    uint64(p.Digest),
		Window: p.Window,
		Weight: p.Count,
		Val0:   p.Val[0],
		Val1:   p.Val[1],
		Src:    p.Worker,
		Key:    p.Key,
	}
}

// openFabric builds the edge fabric cfg selects, with the chaos
// schedule on its TCP links when one is set.
func openFabric(cfg Config) (transport.Transport, error) {
	switch cfg.Transport {
	case TransportMemory:
		if cfg.Chaos != nil {
			return nil, fmt.Errorf("dspe: Chaos needs TransportTCP: the memory transport has no fault model")
		}
		return transport.NewMemory(), nil
	case TransportTCP:
		tcpCfg := transport.TCPConfig{}
		if cfg.Chaos != nil {
			// Chaos runs sever links on purpose: shrink the delivery
			// timers so each recovery episode costs milliseconds, and
			// widen the reconnect budget so the schedule, not the budget,
			// decides how much abuse the run takes.
			tcpCfg = transport.TCPConfig{
				ResendTimeout: 25 * time.Millisecond,
				RedialBackoff: 200 * time.Microsecond,
				MaxReconnects: 1 << 20,
				Chaos:         cfg.Chaos,
			}
		}
		tcp, err := transport.NewTCPWithConfig(cfg.Telemetry, tcpCfg)
		if err != nil {
			return nil, err
		}
		return tcp, nil
	}
	return nil, fmt.Errorf("dspe: unknown transport %d", cfg.Transport)
}

// runOnFabric executes the topology with every data hop a link of
// fabric, which the caller opened (and closes). cfg has defaults
// applied; parts are the per-source partitioners; src is the run's
// input, shared by all spouts. Every goroutine it starts has exited
// when it returns, on the clean path and on a link failure alike.
func runOnFabric(fabric transport.Transport, src *stream.Source, cfg Config, parts []core.Partitioner) (Result, error) {
	shards := cfg.AggShards
	agg := cfg.AggWindow > 0
	pt := newPlaneTelemetry(cfg)
	var err error

	// Spout→bolt links: one per (source, bolt) pair, so each link has a
	// single producer and a single consumer. Bolt→shard links likewise.
	// When the ack window may grow adaptively, the receive rings are
	// deepened so the grown window — not ring capacity — bounds the
	// in-flight depth (skew can concentrate a whole window on one edge).
	linkCap := ringCapFor(cfg)
	if cfg.adaptiveWindow && cfg.Transport == TransportTCP && linkCap < adaptiveWindowMax/2 {
		linkCap = adaptiveWindowMax / 2
	}
	in := make([][]*transport.Link, cfg.Sources)
	for s := range in {
		in[s] = make([]*transport.Link, cfg.Workers)
		for w := range in[s] {
			if in[s][w], err = fabric.Open(fmt.Sprintf("s%d>w%d", s, w), linkCap); err != nil {
				return Result{}, err
			}
		}
	}
	var boltOut [][]*transport.Link
	if agg {
		boltOut = make([][]*transport.Link, cfg.Workers)
		for w := range boltOut {
			boltOut[w] = make([]*transport.Link, shards)
			for r := range boltOut[w] {
				if boltOut[w][r], err = fabric.Open(fmt.Sprintf("w%d>r%d", w, r), partialRingCap); err != nil {
					return Result{}, err
				}
			}
		}
	}
	pt.observeQueues(in)
	inflight := make([]ackWindow, cfg.Sources)

	// One Parker per goroutine, registered on every link it waits on: a
	// bolt on its source links (to read) and shard links (to send on), a
	// shard on its bolt links, a spout on its links to the bolts (to send
	// on, and it parks on the same Parker for acks). All before any
	// goroutine starts.
	spoutPark, boltPark, shardPark := parkers(cfg.Sources), parkers(cfg.Workers), parkers(shards)
	for s := range in {
		for w, l := range in[s] {
			l.SetSendWaiter(spoutPark[s])
			l.SetRecvWaiter(boltPark[w])
		}
	}
	for w := range boltOut {
		for r, l := range boltOut[w] {
			l.SetSendWaiter(boltPark[w])
			l.SetRecvWaiter(shardPark[r])
		}
	}

	// First asynchronous link failure (TCP only); spouts and bolts stop
	// sending when set, and Run surfaces it after the drain. The spouts
	// are the goroutines whose waits test it, so fail wakes them; bolts
	// and shards wait on their links alone, which wake them when the
	// exiting spouts (and then bolts) close their senders.
	var firstErr atomic.Pointer[error]
	fail := func(e error) {
		if e != nil && firstErr.CompareAndSwap(nil, &e) {
			for _, p := range spoutPark {
				p.Wake()
			}
		}
	}
	failed := func() bool { return firstErr.Load() != nil }

	var (
		sd         *aggregation.Driver
		reduceBusy []time.Duration
		reduceWG   sync.WaitGroup
	)
	if agg {
		sd = aggregation.NewShardedDriver(cfg.Workers, shards, cfg.AggWindow, src.Planned(), cfg.AggMerger)
		if pt != nil {
			sd.ObserveLive(pt.reg, pt.base...)
		}
		reduceBusy = make([]time.Duration, shards)
		fan := &finalFanIn{user: cfg.OnFinal, shards: shards}
		for r := 0; r < shards; r++ {
			reduceWG.Add(1)
			go func(r int) {
				defer reduceWG.Done()
				onFinal, deliver := fan.shard()
				// The simulated merge cost is paid per slab on the shard's
				// service clock, net of earlier oversleep: a bare sleep per
				// slab would bottom out at the timer floor and charge every
				// shard the slab COUNT (which sharding does not reduce —
				// each bolt flush sends one slab per shard) instead of the
				// partial count (which it does).
				svc := newServiceClock(cfg.Spin)
				buf := make([]transport.Msg, 256)
				slab := make([]aggregation.Partial, 0, 256)
				drained := make([]bool, cfg.Workers)
				remaining := cfg.Workers
				park := shardPark[r]
				for remaining > 0 {
					progressed := false
					for w := 0; w < cfg.Workers; w++ {
						if drained[w] {
							continue
						}
						n, done := boltOut[w][r].RecvSlab(buf)
						if n == 0 {
							if done {
								drained[w] = true
								remaining--
								progressed = true
							}
							continue
						}
						progressed = true
						slab = slab[:0]
						for i := 0; i < n; i++ {
							m := &buf[i]
							slab = append(slab, aggregation.Partial{
								Window: m.Window,
								Digest: aggregation.KeyDigest(m.Dig),
								Key:    m.Key,
								Count:  m.Weight,
								Val:    aggregation.Value{m.Val0, m.Val1},
								Worker: m.Src,
							})
						}
						t0 := time.Now()
						if cfg.AggMergeCost > 0 {
							svc.pay(cfg.AggMergeCost * time.Duration(len(slab)))
						}
						sd.MergeShard(r, slab, onFinal)
						deliver()
						d := time.Since(t0)
						reduceBusy[r] += d
						pt.addReduce(r, len(slab), d)
					}
					if progressed {
						park.Reset()
					} else if park.Idle() {
						pt.addShardPark(r)
					}
				}
				t0 := time.Now()
				sd.FinishShard(r, onFinal)
				deliver()
				d := time.Since(t0)
				reduceBusy[r] += d
				pt.addReduce(r, 0, d)
			}(r)
		}
	}

	stats := make([]boltStats, cfg.Workers)
	latSampled := make([]int64, cfg.Workers)
	boltPartials := make([]int64, cfg.Workers)
	servicePaid := make([]time.Duration, cfg.Workers)
	var bolts sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		bolts.Add(1)
		go func(w int) {
			defer bolts.Done()
			st := &stats[w]
			st.lat = telemetry.NewHistogram()
			svc := newServiceClock(cfg.Spin)
			var acc *aggregation.Accumulator
			var scratch []aggregation.Partial
			var pendP [][]transport.Msg
			if agg {
				acc = aggregation.NewAccumulatorMerger(w, cfg.AggMerger)
				pendP = make([][]transport.Msg, shards)
			}
			// flushClosed closes windows below `before` and sends each
			// partial to its shard — worker identity intact, merged (and
			// its replica counted) at the reducer. Each touched link is
			// flushed so window finals never sit in a coalescing buffer.
			flushClosed := func(before int64) {
				scratch = acc.FlushBefore(before, scratch[:0])
				pt.addBoltPartials(len(scratch))
				for i := range scratch {
					p := &scratch[i]
					r := aggregation.ShardFor(p.Digest, shards)
					pendP[r] = append(pendP[r], partialMsg(p))
				}
				for r := range pendP {
					if len(pendP[r]) > 0 {
						if !failed() {
							if err := boltOut[w][r].SendSlab(pendP[r]); err != nil {
								fail(err)
							} else if err := boltOut[w][r].Sender.Flush(); err != nil {
								fail(err)
							}
						}
						pendP[r] = pendP[r][:0]
					}
				}
			}
			buf := make([]transport.Msg, cfg.Batch)
			drained := make([]bool, cfg.Sources)
			remaining := cfg.Sources
			park := boltPark[w]
			for remaining > 0 {
				progressed := false
				for s := 0; s < cfg.Sources; s++ {
					if drained[s] {
						continue
					}
					n, done := in[s][w].RecvSlab(buf)
					if n == 0 {
						if done {
							// A link that failed is done too, and its spout
							// may be parked on acks the link lost: only
							// fail wakes it.
							fail(in[s][w].Err())
							drained[s] = true
							remaining--
							progressed = true
						}
						continue
					}
					progressed = true
					acks := 0
					for i := 0; i < n; i++ {
						m := &buf[i]
						if m.Src < 0 {
							// Watermark tick: the global emission sequence
							// entered window m.Window, so (with one window of
							// slack, same as the data path below) older windows
							// are complete at this bolt even if it never sees
							// another tuple. No ack — ticks do not occupy
							// in-flight window slots.
							if acc != nil {
								flushClosed(m.Window - 1)
							}
							continue
						}
						if cfg.ServiceTime > 0 {
							svc.pay(cfg.ServiceTime)
						}
						if acc != nil {
							if wm, ok := acc.Watermark(); ok && m.Window > wm {
								// Watermark advance: flush with one window of
								// slack, so slabs from lagging spouts (bounded
								// reordering: at most one drawn-but-unsent slab
								// per spout) do not fragment a window already
								// flushed.
								flushClosed(m.Window - 1)
							}
							acc.AddSample(m.Window, core.KeyDigest(m.Dig), m.Key, 1, m.Weight)
						}
						if m.Emit != 0 {
							lat := time.Duration(time.Now().UnixNano() - m.Emit)
							st.lat.Observe(float64(lat))
							st.sum += lat
							latSampled[w]++
						}
						st.count++
						acks++
					}
					if acks > 0 {
						if left := inflight[s].n.Add(int64(-acks)); left <= inflight[s].wakeAt.Load() {
							spoutPark[s].Wake()
						}
						pt.addBoltMsgs(w, acks)
					}
				}
				if progressed {
					park.Reset()
				} else if pt != nil {
					t0 := time.Now()
					if park.Idle() {
						pt.addBoltPark(w)
					}
					pt.addAcquireStall(w, time.Since(t0))
				} else {
					park.Idle()
				}
			}
			servicePaid[w] = svc.paid
			if acc != nil {
				flushClosed(1 << 62)
				boltPartials[w] = acc.Flushed()
				for r := range boltOut[w] {
					boltOut[w][r].Sender.Close()
				}
			}
		}(w)
	}

	// The input stream is shared by all spouts (shuffle grouping from the
	// data source to the spouts): each draws its slabs from src.
	start := time.Now()
	var spouts sync.WaitGroup
	for s := 0; s < cfg.Sources; s++ {
		spouts.Add(1)
		go func(s int) {
			defer spouts.Done()
			defer func() {
				for w := range in[s] {
					in[s][w].Sender.Close()
				}
			}()
			p := parts[s]
			keys := make([]string, cfg.Batch)
			dsts := make([]int, cfg.Batch)
			digs := make([]core.KeyDigest, cfg.Batch)
			var vals []int64
			if agg {
				vals = make([]int64, cfg.Batch)
			}
			// Reused per-destination staging, with one slot past Batch
			// for a watermark tick, sent with one SendSlab per touched
			// link, then flushed before waiting on acks (a tuple sitting
			// in a coalescing buffer can never be acked).
			pend := make([][]transport.Msg, cfg.Workers)
			for w := range pend {
				pend[w] = make([]transport.Msg, 0, cfg.Batch+1)
			}
			// win is the spout's in-flight ack window. With the window
			// left at its default over TCP it grows adaptively: an ack
			// stall with every link flushed means the window, not the
			// bolts, is the limiter, so it doubles (up to
			// adaptiveWindowMax) until the pipe stays full.
			win := int64(cfg.Window)
			adaptive := cfg.adaptiveWindow && cfg.Transport == TransportTCP
			pt.setAckWindow(s, win)
			park := spoutPark[s]
			var seq int64 // per-spout emit counter for latency sampling
			for !failed() {
				n, base := src.Draw(keys, vals)
				if n == 0 {
					break
				}
				var t0 time.Time
				if pt != nil {
					t0 = time.Now()
				}
				if room := win - int64(n); inflight[s].n.Load() > room {
					// About to block on acks: flush every link first, so
					// coalesced bytes become visible work downstream (a
					// tuple sitting in a coalescing buffer can never be
					// acked). Until the window fills, the links clock
					// themselves: a TCP sender hands its buffer over when
					// it fills or its writer has caught up, so frames
					// coalesce only while the writer is busy — flushing
					// every link per batch would spend a syscall on each.
					for w := range in[s] {
						if err := in[s][w].Sender.Flush(); err != nil {
							fail(err)
						}
					}
					// Ask the bolts for a wake-up once their acks bring the
					// window down to where this batch fits.
					inflight[s].wakeAt.Store(room)
					stalled := false
					for inflight[s].n.Load() > room && !failed() {
						stalled = true
						if park.Idle() {
							pt.addSpoutPark(s)
						}
					}
					park.Reset()
					if stalled && adaptive && win < adaptiveWindowMax {
						win *= 2
						if win > adaptiveWindowMax {
							win = adaptiveWindowMax
						}
						pt.setAckWindow(s, win)
					}
				}
				if pt != nil {
					pt.addAckWait(s, time.Since(t0))
					t0 = time.Now()
				}
				inflight[s].n.Add(int64(n))
				// Hash-once: routing computes the digests the bolts'
				// partial tables (and the reduce stage) will key by.
				p.RouteBatchDigests(keys[:n], digs, dsts)
				pt.recordRoute(s, p, n, time.Since(t0))
				if agg {
					// Count the slab toward its windows' per-shard
					// completeness thresholds BEFORE any of its tuples can be
					// sent (a threshold must never lag a mergeable partial).
					// When the slab enters a window no spout announced yet,
					// this spout puts a watermark tick at the head of every
					// bolt's slab, ahead of the draw's tuples, so bolts the
					// partitioner starves still flush on time. It uses its
					// OWN links (they are SPSC), and a tick for an already
					// flushed window is a no-op at the bolt.
					if cw, ok := sd.ObserveEmits(base, digs[:n]); ok {
						for w := range pend {
							pend[w] = append(pend[w], transport.Msg{Src: -1, Window: cw})
						}
					}
				}
				now := time.Now().UnixNano()
				for i := 0; i < n; i++ {
					m := transport.Msg{Key: keys[i], Src: int32(s)}
					if agg {
						m.Dig = uint64(digs[i])
						m.Window = (base + int64(i)) / cfg.AggWindow
						m.Weight = vals[i]
					}
					if seq&latSampleMask == 0 {
						m.Emit = now
					}
					seq++
					pend[dsts[i]] = append(pend[dsts[i]], m)
				}
				for w := range pend {
					if len(pend[w]) > 0 {
						if err := in[s][w].SendSlab(pend[w]); err != nil {
							fail(err)
						}
						pend[w] = pend[w][:0]
					}
				}
			}
		}(s)
	}

	// The clock stops at the last goroutine's join: the reducer shards
	// keep draining after the bolts finish (queued slabs, end-of-stream
	// flushes, Finish), and a message is not done until its final is out.
	spouts.Wait()
	bolts.Wait()
	reduceWG.Wait()
	elapsed := time.Since(start)
	if f, ok := fabric.(interface{ Err() error }); ok {
		fail(f.Err()) // TCP's first hard link error
	}
	if p := firstErr.Load(); p != nil {
		return Result{}, *p
	}
	if err := src.Err(); err != nil {
		return Result{}, fmt.Errorf("dspe: %w", err)
	}

	res := Result{
		Algorithm:   cfg.Algorithm,
		Elapsed:     elapsed,
		Loads:       make([]int64, cfg.Workers),
		servicePaid: servicePaid,
	}
	if agg {
		res.Agg = sd.Stats()
		res.AggTotal = sd.Total()
		res.AggReplication = sd.Replication()
		for _, n := range boltPartials {
			res.AggBoltPartials += n
		}
		if elapsed > 0 {
			for _, busy := range reduceBusy {
				u := float64(busy) / float64(elapsed)
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
	if pooled := poolLatency(stats); pooled.Count() > 0 {
		res.P50 = time.Duration(pooled.Quantile(0.50))
		res.P95 = time.Duration(pooled.Quantile(0.95))
		res.P99 = time.Duration(pooled.Quantile(0.99))
	}
	res.Imbalance = metrics.Imbalance(res.Loads)
	if sec := elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(res.Completed) / sec
	}
	return res, nil
}

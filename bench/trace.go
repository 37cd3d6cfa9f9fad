package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"slb"
	"slb/internal/ring"
	"slb/internal/telemetry"
	"slb/internal/transport"
)

// trace.go is the traced run: four passes that produce every per-layer
// metric, on every workload, from the workload's own stream and job.
//
//  1. the staged single-goroutine replay (staged.go);
//  2. link micro-runs: two goroutines and one link;
//  3. the engine with EngineConfig.Telemetry set, once per algorithm,
//     plus one short cell over a faulty wire (EngineConfig.Chaos);
//  4. the routing matrix and the derived unattributed cost.
//
// End-to-end metrics never come from here: the traced run exists to say
// where the untraced run's time goes.

const (
	linkSlab  = 256
	linkCap   = 8192 // the engine's ring depth at Window=4096
	linkMsgs  = 1 << 20
	probeMsgs = 64 << 10 // routing-matrix cell size off route-scale
)

// poll is the consumer backoff the engine's receivers use: yield first,
// then short sleeps once the stall is real.
func poll(spins *int) {
	*spins++
	if *spins < 64 {
		runtime.Gosched()
		return
	}
	time.Sleep(20 * time.Microsecond)
}

// tupleSlab packs the first n messages of a stream as the spout would.
func tupleSlab(slab []string, n int, aggWindow int64) []transport.Msg {
	n = min(n, len(slab))
	msgs := make([]transport.Msg, n)
	for i := range msgs {
		msgs[i] = transport.Msg{Dig: uint64(slb.DigestKey(slab[i])), Window: int64(i) / aggWindow, Weight: 1, Key: slab[i]}
	}
	return msgs
}

// linkCost is one micro-run: CPU and wall per message through one link.
type linkCost struct{ cpuNs, wallNs float64 }

// measureLink pumps msgs through a link `cycles` times in slabs of 256,
// producer and consumer on their own goroutines, and charges the
// process's CPU (both ends, including polling) to the messages moved.
func measureLink(msgs []transport.Msg, cycles int, produce func(slab []transport.Msg) error, finish func() error, consume func() (n int, done bool)) (linkCost, error) {
	total := int64(len(msgs)) * int64(cycles)
	var wg sync.WaitGroup
	var sendErr error
	cpu0, t0 := cpuTime(), time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := 0; c < cycles && sendErr == nil; c++ {
			for i := 0; i < len(msgs) && sendErr == nil; i += linkSlab {
				sendErr = produce(msgs[i:min(i+linkSlab, len(msgs))])
			}
		}
		if err := finish(); sendErr == nil {
			sendErr = err
		}
	}()
	var got int64
	spins := 0
	for {
		n, done := consume()
		if done {
			break
		}
		if n == 0 {
			poll(&spins)
			continue
		}
		spins = 0
		got += int64(n)
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if sendErr != nil {
		return linkCost{}, sendErr
	}
	if got != total {
		return linkCost{}, fmt.Errorf("link delivered %d of %d messages", got, total)
	}
	return linkCost{cpuNs: float64(cpu) / float64(total), wallNs: float64(wall) / float64(total)}, nil
}

func ringRun(msgs []transport.Msg, cycles int) (linkCost, error) {
	q := ring.New[transport.Msg](linkCap)
	return measureLink(msgs, cycles,
		func(slab []transport.Msg) error {
			spins := 0
			for len(slab) > 0 {
				dst := q.Grant(len(slab))
				if dst == nil {
					poll(&spins)
					continue
				}
				n := copy(dst, slab)
				q.Publish(n)
				slab = slab[n:]
			}
			return nil
		},
		func() error { q.Close(); return nil },
		func() (int, bool) {
			got := q.Acquire(2 * linkSlab)
			if len(got) == 0 {
				return 0, q.Drained()
			}
			q.Release(len(got))
			return len(got), false
		})
}

func transportRun(tr transport.Transport, msgs []transport.Msg, cycles int) (linkCost, error) {
	defer tr.Close()
	l, err := tr.Open("bench", linkCap)
	if err != nil {
		return linkCost{}, err
	}
	buf := make([]transport.Msg, 2*linkSlab)
	c, err := measureLink(msgs, cycles, l.SendSlab, l.Sender.Close,
		func() (int, bool) { return l.RecvSlab(buf) })
	if err == nil {
		err = l.Err()
	}
	return c, err
}

// harvest reads one engine run's telemetry.
type harvest struct {
	snap        telemetry.Snapshot
	liveEntries float64 // mean of the sampled reduce_live_entries sum
}

func (h harvest) sum(name string) float64 {
	var v float64
	for i := range h.snap.Metrics {
		if h.snap.Metrics[i].Name == name {
			v += h.snap.Metrics[i].Value
		}
	}
	return v
}

func (h harvest) max(name string) float64 {
	var v float64
	for i := range h.snap.Metrics {
		if h.snap.Metrics[i].Name == name {
			v = max(v, h.snap.Metrics[i].Value)
		}
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// telemetryRun is the engine with a registry attached and a 100 ms
// sampler for the gauges that only mean something mid-run.
func telemetryRun(j job, alg string, slab []string, msgs int64, chaos *transport.ChaosConfig) (engineRun, harvest) {
	reg := telemetry.NewRegistry()
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var liveSum float64
	var liveN int
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				liveSum += harvest{snap: reg.Snapshot()}.sum("reduce_live_entries")
				liveN++
			}
		}
	}()
	r := runEngine(j, alg, slab, msgs, reg, chaos)
	close(stop)
	sampler.Wait()
	return r, harvest{snap: reg.Snapshot(), liveEntries: ratio(liveSum, float64(liveN))}
}

// traceMsgs is the engine passes' message count for one algorithm: the
// first cycle of the stream, or the algorithm's own cell when that is
// shorter (storm-1ms sizes its cells by how fast each scheme drains).
func traceMsgs(w *workload, sc scale, alg string, slabLen int) int64 {
	n := int64(slabLen)
	for _, c := range w.Cells {
		if w.Engine && c.Alg == alg {
			n = min(n, sc.msgs(c))
		}
	}
	return n
}

// tracedRun carries what the four passes share.
type tracedRun struct {
	w    *workload
	sc   scale
	prep *prepared
	tr   *tracer
	out  *runResult
	j    job
	slab []string
	refs map[int64]fingerprint // ground truth by message count
}

func (t *tracedRun) fail(msgs int64, errs ...string) {
	if len(errs) > 0 {
		t.out.Failed += msgs
		t.out.Errors = append(t.out.Errors, errs...)
	}
}

func (t *tracedRun) failErr(who string, err error) {
	if err != nil {
		t.fail(0, who+": "+err.Error())
	}
}

func (t *tracedRun) refFor(msgs int64) fingerprint {
	if _, ok := t.refs[msgs]; !ok {
		t.refs[msgs] = groundTruth(newCycle(t.slab, msgs), t.j.AggWindow)
	}
	return t.refs[msgs]
}

// stagedCost is what the derived metrics need from pass 1.
type stagedCost struct {
	msgs                int64
	sum, encode, decode float64 // ns per message
	partialsPerMsg      float64
	repl                float64
}

// staged is pass 1: the replay over the first cycle of the stream.
func (t *tracedRun) staged() stagedCost {
	out, msgs := t.out, int64(len(t.slab))
	st, err := stagedReplay(t.tr, t.j, t.slab, msgs)
	out.Attempted += msgs
	var ck checks
	if err != nil {
		ck.failf("staged: %v", err)
	}
	ck.checkFinals("staged", st.fp, t.refFor(msgs), msgs)
	t.fail(msgs, ck.errs...)
	self, shadow := t.tr.selfTimes()
	per := func(d time.Duration) float64 { return float64(d) / float64(msgs) }
	c := stagedCost{msgs: msgs, partialsPerMsg: float64(st.partials) / float64(msgs), repl: st.repl}
	for _, n := range stagedNames {
		c.sum += per(self[n])
	}
	// The codec is on the path of a wire job and a shadow elsewhere.
	c.encode = per(self["transport.encode"] + shadow["transport.encode"])
	c.decode = per(self["transport.decode"] + shadow["transport.decode"])
	out.set("stream.next_batch_ns_per_msg", per(self["stream.next_batch"]))
	out.set("hashing.digest_ns_per_msg", per(shadow["hashing.digest"]))
	out.set("spacesaving.offer_ns_per_msg", per(shadow["spacesaving.offer"]))
	out.set("core.route_ns_per_msg", per(self["core.route"]))
	out.set("core.route_self_ns_per_msg", max(0, per(self["core.route"]-shadow["hashing.digest"]-shadow["spacesaving.offer"])))
	out.set("dspe.pack_ns_per_msg", per(self["dspe.pack"]))
	out.set("transport.encode_ns_per_msg", c.encode)
	out.set("transport.decode_ns_per_msg", c.decode)
	out.set("transport.frame_bytes_per_msg", float64(st.frameBytes)/float64(msgs))
	out.set("transport.dict_hit_ratio", ratio(float64(st.dict.Hits), float64(st.dict.Hits+st.dict.News)))
	out.set("aggregation.accumulate_ns_per_msg", per(self["aggregation.accumulate"]))
	out.set("aggregation.flush_ns_per_msg", per(self["aggregation.flush"]))
	out.set("aggregation.combine_ns_per_msg", per(shadow["aggregation.combine"]))
	out.set("aggregation.reduce_ns_per_msg", per(self["aggregation.reduce"]))
	out.set("aggregation.partials_per_msg", c.partialsPerMsg)
	out.set("aggregation.finals_per_msg", float64(st.fp.Finals)/float64(msgs))
	out.set("aggregation.replication", st.repl)
	out.set("aggregation.combine_out_per_in", ratio(float64(st.combineOut), float64(st.combineIn)))
	out.set("aggregation.reducer_peak_entries", float64(st.peak))
	out.set("dspe.staged_sum_ns_per_msg", c.sum)
	return c
}

// links is pass 2: one link, two goroutines, the workload's own tuples.
func (t *tracedRun) links() (mem, tcp linkCost) {
	tuples := tupleSlab(t.slab, linkMsgs, t.j.AggWindow)
	cycles := max(1, len(t.slab)/len(tuples))
	ringC, err := ringRun(tuples, cycles)
	t.failErr("ring", err)
	mem, err = transportRun(transport.NewMemory(), tuples, cycles)
	t.failErr("memory link", err)
	fabric, err := transport.NewTCP(nil)
	if err == nil {
		tcp, err = transportRun(fabric, tuples, cycles)
	}
	t.failErr("tcp link", err)
	t.out.set("ring.spsc_ns_per_msg", ringC.cpuNs)
	t.out.set("transport.mem_link_ns_per_msg", mem.cpuNs)
	t.out.set("transport.tcp_link_ns_per_msg", tcp.cpuNs)
	t.out.set("transport.tcp_link_msgs_per_s", ratio(1e9, tcp.wallNs))
	return mem, tcp
}

// engine is pass 3: the job untraced once for the reference CPU cost
// (returned), then with telemetry for each algorithm, then over a
// faulty wire.
func (t *tracedRun) engine(st stagedCost) float64 {
	out, j := t.out, t.j
	msgsJob := traceMsgs(t.w, t.sc, j.Alg, len(t.slab))
	runtime.GC()
	ref := runEngine(j, j.Alg, t.slab, msgsJob, nil, nil)
	out.Attempted += msgsJob
	errs, _ := ref.check("engine (untraced)", msgsJob, t.refFor(msgsJob))
	t.fail(msgsJob, errs...)
	refCPU := float64(ref.cpu) / float64(msgsJob)
	out.set("dspe.engine_cpu_ns_per_msg", refCPU)
	for _, alg := range algs {
		msgs := traceMsgs(t.w, t.sc, alg, len(t.slab))
		runtime.GC()
		r, h := telemetryRun(j, alg, t.slab, msgs, nil)
		out.Attempted += msgs
		errs, loadMax := r.check("engine+telemetry "+alg, msgs, t.refFor(msgs))
		t.fail(msgs, errs...)
		out.set("dspe.msgs_per_s."+alg, float64(msgs)/r.wall.Seconds())
		out.set("dspe.latency_p99_ms."+alg, float64(r.res.P99)/1e6)
		out.set("core.load_max_over_mean."+alg, loadMax)
		out.set("aggregation.replication."+alg, r.res.AggReplication)
		if alg != j.Alg {
			continue
		}
		if r.err == nil && msgs == st.msgs && r.res.AggReplication != st.repl {
			t.fail(msgs, fmt.Sprintf("engine replication %v differs from the staged replay's %v", r.res.AggReplication, st.repl))
		}
		wall, n := float64(r.wall), float64(msgs)
		out.set("dspe.spout_route_ns_per_msg", ratio(h.sum("route_ns_total"), h.sum("route_msgs_total")))
		out.set("dspe.spout_ack_wait_share", h.sum("spout_ack_wait_ns_total")/wall)
		out.set("dspe.acquire_stall_share", h.sum("acquire_stall_ns_total")/wall/float64(j.Workers))
		out.set("dspe.reduce_busy_share_max", h.max("reduce_busy_ns_total")/wall)
		out.set("dspe.reduce_busy_share_mean", h.sum("reduce_busy_ns_total")/wall/float64(max(j.Shards, 1)))
		out.set("dspe.reduce_live_entries_mean", h.liveEntries)
		out.set("dspe.ack_window", h.max("spout_ack_window"))
		out.set("dspe.tuple_latency_p50_ms", float64(r.res.P50)/1e6)
		out.set("dspe.tuple_latency_p99_ms", float64(r.res.P99)/1e6)
		out.set("core.head_share", ratio(h.sum("route_head_msgs_total"), h.sum("route_msgs_total")))
		hits, misses := h.sum("route_cand_cache_hits_total"), h.sum("route_cand_cache_misses_total")
		out.set("core.cand_cache_hit_ratio", ratio(hits, hits+misses))
		tree, scan := h.sum("route_tree_argmins_total"), h.sum("route_scan_argmins_total")
		out.set("core.tree_argmin_share", ratio(tree, tree+scan))
		out.set("aggregation.bolt_partials_per_msg", h.sum("bolt_partials_total")/n)
		out.set("aggregation.reduce_partials_per_msg", h.sum("reduce_partials_total")/n)
		out.set("transport.tx_bytes_per_msg", h.sum("transport_tx_bytes_total")/n)
		out.set("transport.frames_per_flush", ratio(h.sum("transport_frames_total"), h.sum("transport_flushes_total")))
		out.set("transport.send_stalls_per_mmsg", h.sum("transport_send_stalls_total")/n*1e6)
		out.set("transport.retransmit_frames", h.sum("transport_retransmit_frames_total"))
		out.set("transport.reconnects", h.sum("transport_reconnects_total"))
		out.set("telemetry.overhead_pct", 100*(float64(r.cpu)/n-refCPU)/refCPU)
	}

	// The same job over a faulty wire: every link severed (each 64th
	// buffer write) and 2% of buffer writes dropped; finals must not
	// change. Writes, and with them redials, grow with the fan-out, so
	// the cell shrinks with it: a quarter of the job at 8 workers.
	j.Transport = slb.TransportTCP
	msgs := max(2*msgsJob/int64(j.Workers), 1)
	runtime.GC()
	r, h := telemetryRun(j, j.Alg, t.slab, msgs, &transport.ChaosConfig{Seed: routeSeed, DropOneIn: 50, SeverEvery: 64})
	out.Attempted += msgs
	errs, _ = r.check("engine+chaos", msgs, t.refFor(msgs))
	t.fail(msgs, errs...)
	out.set("transport.chaos_msgs_per_s", float64(msgs)/r.wall.Seconds())
	out.set("transport.chaos_retransmit_frames", h.sum("transport_retransmit_frames_total"))
	out.set("transport.chaos_reconnects", h.sum("transport_reconnects_total"))
	return refCPU
}

// matrix is the routing matrix of pass 4. route-scale measures its own
// cells with spans; elsewhere a short probe keeps the names comparable.
func (t *tracedRun) matrix() {
	streams := t.prep.streams
	for _, c := range routeMatrix {
		msgs := int64(probeMsgs)
		var tr *tracer
		if !t.w.Engine {
			msgs, tr = max(t.sc.msgs(c)/4, 1), t.tr
		} else if t.sc.quick {
			msgs = c.Quick / 4
		}
		if _, ok := streams[c.Z]; !ok {
			streams[c.Z] = materialise(c.Z, routeKeys, int(min(msgs, int64(t.sc.slab(t.w)))), t.out.Seed)
		}
		runtime.GC()
		s := routeCell(c, streams[c.Z], msgs, tr)
		t.out.Attempted += msgs
		t.fail(msgs, s.errs...)
		var routeNs float64
		for _, d := range s.lat {
			routeNs += d
		}
		t.out.set("core.route_ns_per_msg."+c.Name, routeNs/float64(msgs))
		t.out.set("core.load_max_over_mean."+c.Name, s.loadMax)
	}
}

func traced(w *workload, sc scale, prep *prepared, tr *tracer, out *runResult) {
	t := &tracedRun{w: w, sc: sc, prep: prep, tr: tr, out: out, j: w.Job,
		slab: prep.streams[w.Job.Z], refs: map[int64]fingerprint{}}
	st := t.staged()
	mem, tcp := t.links()
	refCPU := t.engine(st)
	t.matrix()

	// Derived: what the engine burns that no staged layer or link
	// explains. Each message crosses one spout->bolt hop and each
	// partial one bolt->shard hop; on a wire job the codec is already in
	// the staged sum, so only the rest of the link's cost is added.
	link := mem.cpuNs
	if t.j.Transport == slb.TransportTCP {
		link = max(0, tcp.cpuNs-st.encode-st.decode)
	}
	link *= 1 + st.partialsPerMsg
	out.set("dspe.link_ns_per_msg", link)
	out.set("dspe.unattributed_ns_per_msg", refCPU-st.sum-link)
	out.set("dspe.unattributed_share", (refCPU-st.sum-link)/refCPU)
}

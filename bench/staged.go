package main

import (
	"encoding/binary"
	"time"

	"slb"
	"slb/internal/aggregation"
	"slb/internal/hashing"
	"slb/internal/spacesaving"
	"slb/internal/transport"
)

// staged.go is traced pass 1: the bench composes the layers itself, in
// ONE goroutine, over the workload's exact stream — draw a slab, route
// it, pack it per destination, (on a wire job) encode and decode each
// frame, accumulate, flush closed windows, reduce — with a span around
// every call. It is three things at once: the per-layer cost split, the
// single-threaded baseline of the same job, and a second implementation
// of the job whose finals the engine's must equal.
//
// It mirrors the transport plane's division of labour: bolt partials
// reach the reducer uncombined (no combiner tree on that plane), and
// windows flush on the watermark tick with one window of slack. Three
// measurements ride along as SHADOW spans — executed and timed on the
// same slab, but outside the job's own path, so they are excluded from
// the staged sum: hashing.Digest and spacesaving.OfferDigest (both
// happen inside RouteBatchDigests; core.route_self is route minus the
// two), CombineTable.Fold (what a combiner in front of the shard hop
// would cost and save), and — on jobs that do not cross a socket — the
// frame codec.

// stagedNames are the spans whose self times add up to the job's
// single-threaded cost.
var stagedNames = []string{
	"stream.next_batch", "core.route", "dspe.pack",
	"transport.encode", "transport.decode",
	"aggregation.accumulate", "aggregation.flush", "aggregation.reduce",
}

// digestSink keeps the shadow digest loop from being optimised away.
var digestSink uint64

type stagedResult struct {
	msgs       int64
	fp         fingerprint
	frameBytes int64
	dict       transport.EncoderStats
	partials   int64
	combineIn  int64
	combineOut int64
	repl       float64
	peak       int
}

// stagedLink is one staged edge: a frame codec pair and its reused buffers.
type stagedLink struct {
	enc   transport.Encoder
	dec   transport.Decoder
	pend  []transport.Msg
	frame []byte
	recv  []transport.Msg
}

// encode frames pend and returns the frame's size; decode unpacks that
// frame into recv.
func (l *stagedLink) encode() int {
	l.frame = l.enc.AppendFrame(l.frame[:0], l.pend)
	return len(l.frame)
}

func (l *stagedLink) decode() error {
	_, n := binary.Uvarint(l.frame)
	var err error
	l.recv, err = l.dec.DecodeFrame(l.frame[n:], l.recv[:0])
	return err
}

type stager struct {
	tr     *tracer
	j      job
	wire   bool
	shards int

	accs    []*aggregation.Accumulator
	tuples  []stagedLink   // spout -> bolt w
	parts   [][]stagedLink // bolt w -> shard r
	combine []*aggregation.CombineTable
	driver  *aggregation.Driver
	scratch []aggregation.Partial
	slabP   []aggregation.Partial
	res     stagedResult
	err     error

	nShadow, nPack, nEncode, nDecode, nFlush, nCombine, nReduce uint8
}

// codec runs the frame codec over every non-empty link of ls: on the
// job's own path for a wire job, as a shadow otherwise.
func (s *stager) codec(ls []stagedLink, parent int32, slab int) {
	if !s.wire {
		parent = s.tr.begin(s.nShadow, parent, slab)
		defer s.tr.end(parent)
	}
	id := s.tr.begin(s.nEncode, parent, slab)
	for i := range ls {
		if len(ls[i].pend) > 0 {
			s.res.frameBytes += int64(ls[i].encode())
		}
	}
	s.tr.end(id)
	id = s.tr.begin(s.nDecode, parent, slab)
	for i := range ls {
		if len(ls[i].pend) > 0 {
			if err := ls[i].decode(); err != nil && s.err == nil {
				s.err = err
			}
		}
	}
	s.tr.end(id)
}

// delivered is what the receiving end of l sees: the decoded frame on a
// wire job, the packed slab itself otherwise.
func (s *stager) delivered(l *stagedLink) []transport.Msg {
	if s.wire && len(l.pend) > 0 {
		return l.recv
	}
	return l.pend
}

// partialOf unpacks a bolt partial from its wire shape, as the reducer
// does.
func partialOf(m transport.Msg) aggregation.Partial {
	return aggregation.Partial{
		Window: m.Window, Digest: aggregation.KeyDigest(m.Dig), Key: m.Key,
		Count: m.Weight, Val: aggregation.Value{m.Val0, m.Val1}, Worker: m.Src,
	}
}

// shadowCombine times f, a CombineTable step, outside the job's path.
func (s *stager) shadowCombine(parent int32, slab int, f func()) {
	sh := s.tr.begin(s.nShadow, parent, slab)
	id := s.tr.begin(s.nCombine, sh, slab)
	f()
	s.tr.end(id)
	s.tr.end(sh)
}

// flushClosed is what a bolt does on a window roll: flush its closed
// windows, pack each partial for its shard, cross the hop, and let the
// reducer merge.
func (s *stager) flushClosed(w int, before int64, parent int32, slab int) {
	id := s.tr.begin(s.nFlush, parent, slab)
	s.scratch = s.accs[w].FlushBefore(before, s.scratch[:0])
	s.tr.end(id)
	if len(s.scratch) == 0 {
		return
	}
	s.res.partials += int64(len(s.scratch))
	out := s.parts[w]
	id = s.tr.begin(s.nPack, parent, slab)
	for r := range out {
		out[r].pend = out[r].pend[:0]
	}
	for i := range s.scratch {
		p := &s.scratch[i]
		r := slb.AggShardFor(p.Digest, s.shards)
		out[r].pend = append(out[r].pend, transport.Msg{
			Dig: uint64(p.Digest), Window: p.Window, Weight: p.Count,
			Val0: p.Val[0], Val1: p.Val[1], Src: p.Worker, Key: p.Key,
		})
	}
	s.tr.end(id)
	s.codec(out, parent, slab)

	id = s.tr.begin(s.nReduce, parent, slab)
	for r := range out {
		s.slabP = s.slabP[:0]
		for _, m := range s.delivered(&out[r]) {
			s.slabP = append(s.slabP, partialOf(m))
		}
		s.driver.Merge(s.slabP, s.res.fp.addFinal)
	}
	s.tr.end(id)

	s.shadowCombine(parent, slab, func() {
		for r := range out {
			for _, m := range s.delivered(&out[r]) {
				p := partialOf(m)
				s.combine[r].Fold(&p)
			}
		}
	})
}

// stagedReplay runs job j over the first msgs messages of slab.
func stagedReplay(tr *tracer, j job, slab []string, msgs int64) (stagedResult, error) {
	part, err := slb.New(j.Alg, slb.Config{Workers: j.Workers, Seed: routeSeed})
	if err != nil {
		return stagedResult{}, err
	}
	// The engine's defaults (dspe.Config): ack window 100, batch 64
	// clamped to the window.
	window, batch := j.Window, j.Batch
	if window <= 0 {
		window = 100
	}
	if batch <= 0 {
		batch = 64
	}
	batch = min(batch, window)
	s := &stager{
		tr: tr, j: j, wire: j.Transport == slb.TransportTCP, shards: max(j.Shards, 1),
		accs:    make([]*aggregation.Accumulator, j.Workers),
		tuples:  make([]stagedLink, j.Workers),
		parts:   make([][]stagedLink, j.Workers),
		driver:  aggregation.NewDriver(j.Workers, j.AggWindow, msgs),
		nShadow: tr.nameID("shadow"), nPack: tr.nameID("dspe.pack"),
		nEncode: tr.nameID("transport.encode"), nDecode: tr.nameID("transport.decode"),
		nFlush: tr.nameID("aggregation.flush"), nCombine: tr.nameID("aggregation.combine"),
		nReduce: tr.nameID("aggregation.reduce"),
	}
	s.res.msgs = msgs
	for w := range s.accs {
		s.accs[w] = aggregation.NewAccumulator(w)
		s.parts[w] = make([]stagedLink, s.shards)
	}
	for r := 0; r < s.shards; r++ {
		s.combine = append(s.combine, aggregation.NewCombineTable(nil))
	}
	// The sketch the head-aware schemes keep: capacity 4/θ at the
	// default θ = 1/(5n).
	sketch := spacesaving.New(20 * j.Workers)
	nSlab, nNext, nRoute := tr.nameID("slab"), tr.nameID("stream.next_batch"), tr.nameID("core.route")
	nDigest, nSketch, nAccum := tr.nameID("hashing.digest"), tr.nameID("spacesaving.offer"), tr.nameID("aggregation.accumulate")

	gen := newCycle(slab, msgs)
	keys := make([]string, batch)
	digs := make([]slb.KeyDigest, batch)
	dst := make([]int, batch)
	var base, ticked int64
	var sink uint64
	for slabNo := 0; ; slabNo++ {
		root := tr.begin(nSlab, 0, slabNo)
		id := tr.begin(nNext, root, slabNo)
		n := gen.NextBatch(keys)
		tr.end(id)
		if n == 0 {
			tr.end(root)
			break
		}
		id = tr.begin(nRoute, root, slabNo)
		slb.RouteBatchDigests(part, keys[:n], digs, dst)
		tr.end(id)

		sh := tr.begin(s.nShadow, root, slabNo)
		id = tr.begin(nDigest, sh, slabNo)
		for _, k := range keys[:n] {
			sink ^= uint64(hashing.Digest(k))
		}
		tr.end(id)
		id = tr.begin(nSketch, sh, slabNo)
		for i, k := range keys[:n] {
			sketch.OfferDigest(digs[i], k)
		}
		tr.end(id)
		tr.end(sh)

		// Pack per destination the way the spout does: a watermark tick
		// to every bolt when the emission sequence enters a new window,
		// then the tuples, one in eight stamped for latency.
		id = tr.begin(s.nPack, root, slabNo)
		for w := range s.tuples {
			s.tuples[w].pend = s.tuples[w].pend[:0]
		}
		tick := (base+int64(n)-1)/j.AggWindow > ticked
		if tick {
			ticked = (base + int64(n) - 1) / j.AggWindow
			cw := ticked
			for w := range s.tuples {
				s.tuples[w].pend = append(s.tuples[w].pend, transport.Msg{Src: -1, Window: cw})
			}
		}
		now := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			seq := base + int64(i)
			m := transport.Msg{Dig: uint64(digs[i]), Window: seq / j.AggWindow, Weight: 1, Key: keys[i]}
			if seq&7 == 0 {
				m.Emit = now
			}
			s.tuples[dst[i]].pend = append(s.tuples[dst[i]].pend, m)
		}
		tr.end(id)
		s.codec(s.tuples, root, slabNo)

		acc := tr.begin(nAccum, root, slabNo)
		for w := range s.tuples {
			in := s.delivered(&s.tuples[w])
			for i := range in {
				m := &in[i]
				if m.Src < 0 {
					s.flushClosed(w, m.Window-1, acc, slabNo)
					continue
				}
				if wm, ok := s.accs[w].Watermark(); ok && m.Window > wm {
					s.flushClosed(w, m.Window-1, acc, slabNo)
				}
				s.accs[w].AddSample(m.Window, slb.KeyDigest(m.Dig), m.Key, 1, m.Weight)
			}
		}
		tr.end(acc)
		if tick {
			// Every bolt has now flushed below the tick, so a combiner
			// would flush the same windows.
			s.shadowCombine(root, slabNo, func() {
				for _, ct := range s.combine {
					s.scratch = ct.FlushBefore(ticked-1, s.scratch[:0])
				}
			})
		}
		tr.end(root)
		base += int64(n)
	}
	root := tr.begin(tr.nameID("drain"), 0, -1)
	for w := range s.accs {
		s.flushClosed(w, 1<<62, root, -1)
	}
	id := tr.begin(s.nReduce, root, -1)
	s.driver.Finish(s.res.fp.addFinal)
	tr.end(id)
	s.shadowCombine(root, -1, func() {
		for _, ct := range s.combine {
			s.scratch = ct.FlushAll(s.scratch[:0])
			s.res.combineIn += ct.In()
			s.res.combineOut += ct.Out()
		}
	})
	tr.end(root)
	digestSink = sink

	for w := range s.tuples {
		st := s.tuples[w].enc.Stats()
		s.res.dict.Hits += st.Hits
		s.res.dict.News += st.News
		for r := range s.parts[w] {
			st := s.parts[w][r].enc.Stats()
			s.res.dict.Hits += st.Hits
			s.res.dict.News += st.News
		}
	}
	s.res.repl = s.driver.Replication()
	s.res.peak = s.driver.Stats().PeakEntries
	return s.res, s.err
}

package dspe

import (
	"fmt"
	"sync"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/metrics"
	"slb/internal/stream"
)

// Pipeline is a linear multi-stage topology: a spout stage reading a
// key stream, followed by one or more bolt stages connected by grouped
// streams. Each edge has its own grouping scheme (any of core.Names),
// and — exactly as in the paper's model — each upstream executor owns a
// private partitioner instance with sender-local load estimates for
// every edge it sends on.
//
// Tuples flow through bounded channels (backpressure); stages terminate
// in order once the spout's stream is exhausted, so a finite stream
// always drains completely. This generalizes Run's fixed
// source→worker DAG to the DAGs real DSPE applications use
// (e.g. tokenize → count).
//
// Four stage kinds compose the paper's two-phase applications:
// AddStage (plain per-tuple functions), AddWindowedAggregate (per-key
// partial counts per tumbling window, flushed downstream as weighted
// partial tuples — the aggregation phase key splitting makes
// necessary), AddWindowedMerge (the same with a pluggable merge
// operator over tuple weights: sum, min/max, approximate-distinct) and
// AddWeightedStage (functions that see tuple weights and windows —
// the reduce phase merging partials, typically grouped "KG").
type Pipeline struct {
	gen    stream.Generator
	spouts int
	stages []stageSpec
}

// StageFunc processes one tuple and may emit any number of keyed tuples
// downstream via emit (a leaf stage's emissions are discarded).
// Executors call it from exactly one goroutine. Emissions inherit the
// incoming tuple's weight and window unchanged (pass-through), so a
// plain stage between a windowed-aggregate stage and its reducer
// relabels partials without corrupting their counts; a stage that fans
// one tuple out into several therefore multiplies total weight — use
// AddWeightedStage when emissions must repartition the count.
type StageFunc func(key string, emit func(key string))

// WeightedStageFunc is the stage form that sees tuple weights: count is
// the number of source tuples the incoming tuple stands for (1 for raw
// tuples, a partial count for tuples emitted by a windowed-aggregate
// stage) and window is the tumbling-window id it belongs to (0 for raw
// tuples). Emissions carry their own counts. This is the natural shape
// of a reduce stage merging partials.
type WeightedStageFunc func(key string, window int64, count int64, emit func(key string, count int64))

type stageSpec struct {
	name        string
	parallelism int
	grouping    string // algorithm for the edge INTO this stage
	fn          StageFunc
	wfn         WeightedStageFunc
	aggWindow   int64              // > 0: windowed-aggregate stage
	merger      aggregation.Merger // non-nil: merge operator over tuple weights
	service     time.Duration
}

// NewPipeline starts a pipeline definition from a spout stage with the
// given parallelism reading gen.
func NewPipeline(gen stream.Generator, spouts int) *Pipeline {
	if spouts <= 0 {
		panic("dspe: pipeline needs at least one spout")
	}
	return &Pipeline{gen: gen, spouts: spouts}
}

// AddStage appends a bolt stage. grouping names the partitioning scheme
// of the edge into this stage (one of core.Names); service is an
// optional simulated per-tuple processing cost.
func (p *Pipeline) AddStage(name string, parallelism int, grouping string, service time.Duration, fn StageFunc) *Pipeline {
	if parallelism <= 0 {
		panic("dspe: stage parallelism must be positive")
	}
	if fn == nil {
		panic("dspe: stage function required")
	}
	p.stages = append(p.stages, stageSpec{
		name:        name,
		parallelism: parallelism,
		grouping:    grouping,
		fn:          fn,
		service:     service,
	})
	return p
}

// AddWeightedStage appends a bolt stage whose function sees tuple
// weights and windows — the reduce half of a two-phase aggregation.
// Group it "KG" to guarantee all partials of a key meet at one executor.
func (p *Pipeline) AddWeightedStage(name string, parallelism int, grouping string, service time.Duration, fn WeightedStageFunc) *Pipeline {
	if parallelism <= 0 {
		panic("dspe: stage parallelism must be positive")
	}
	if fn == nil {
		panic("dspe: stage function required")
	}
	p.stages = append(p.stages, stageSpec{
		name:        name,
		parallelism: parallelism,
		grouping:    grouping,
		wfn:         fn,
		service:     service,
	})
	return p
}

// AddWindowedAggregate appends a windowed-aggregate stage: executors
// keep per-key partial counts per tumbling window of `window` source
// tuples (window ids derive from the spout's global emission sequence)
// and, when a window closes, emit ONE weighted tuple per distinct
// (window, key) partial downstream — the aggregation traffic whose
// volume is the replication factor the upstream grouping paid. A
// following AddWeightedStage with "KG" grouping merges the partials
// into finals; as a leaf stage the partials are still counted (for
// StageResult.AggPartials) but discarded.
func (p *Pipeline) AddWindowedAggregate(name string, parallelism int, grouping string, window int64) *Pipeline {
	if parallelism <= 0 {
		panic("dspe: stage parallelism must be positive")
	}
	if window <= 0 {
		panic("dspe: aggregate window must be positive")
	}
	p.stages = append(p.stages, stageSpec{
		name:        name,
		parallelism: parallelism,
		grouping:    grouping,
		aggWindow:   window,
	})
	return p
}

// AddWindowedMerge is AddWindowedAggregate with a pluggable merge
// operator: executors fold each incoming tuple's WEIGHT through the
// merger per (window, key) — the addend for aggregation.SumMerger, the
// comparand for Min/Max — and, when a window closes, emit one weighted
// tuple per (window, key) partial whose weight is the merger's RESULT
// for that partial.
//
// The stage boundary carries that scalar result, not the merger's
// internal state, so a downstream AddWeightedStage (typically grouped
// "KG") can reassemble a key's split partials only for operators whose
// results stay combinable as plain numbers: sum the sums (Count/Sum),
// min the mins / max the maxes. DistinctMerger does NOT qualify — an
// HLL estimate of each fragment cannot be combined into an estimate of
// the union — so use it here only when this stage's grouping keeps
// each key on one executor (e.g. "KG"); when a splitting grouping must
// feed a distinct count, use the engines' AggMerger path instead,
// whose flushed partials transport the full combinable state.
//
// AddWindowedMerge(…, aggregation.SumMerger) over weight-1 tuples
// behaves identically to AddWindowedAggregate (a count IS a sum of
// ones).
func (p *Pipeline) AddWindowedMerge(name string, parallelism int, grouping string, window int64, m aggregation.Merger) *Pipeline {
	if parallelism <= 0 {
		panic("dspe: stage parallelism must be positive")
	}
	if window <= 0 {
		panic("dspe: aggregate window must be positive")
	}
	if m == nil {
		panic("dspe: AddWindowedMerge requires a merge operator")
	}
	p.stages = append(p.stages, stageSpec{
		name:        name,
		parallelism: parallelism,
		grouping:    grouping,
		aggWindow:   window,
		merger:      m,
	})
	return p
}

// StageResult reports one stage's outcome.
type StageResult struct {
	Name string
	// Loads is the per-executor processed-tuple count.
	Loads []int64
	// Imbalance is I(m) over this stage's executors.
	Imbalance float64
	// Processed is the total tuples handled by the stage.
	Processed int64
	// AggPartials and AggWindows are the partial tuples emitted and the
	// window flushes performed by a windowed-aggregate stage (zero for
	// other stage kinds).
	AggPartials int64
	AggWindows  int64
}

// PipelineResult aggregates a pipeline run.
type PipelineResult struct {
	// Emitted is the number of tuples the spout stage produced.
	Emitted int64
	// Stages reports each bolt stage in order.
	Stages []StageResult
	// Elapsed is the wall-clock makespan.
	Elapsed time.Duration
	// P50, P95, P99 are end-to-end latency percentiles measured at the
	// final stage (from spout emission to leaf completion).
	P50, P95, P99 time.Duration
}

// PipelineConfig carries the engine-level knobs for a pipeline run.
type PipelineConfig struct {
	// Core carries seed/θ/ε shared by all edges (Workers and Instance
	// are filled per edge/executor).
	Core core.Config
	// QueueLen is the per-executor input channel capacity; 0 means 128.
	QueueLen int
	// Messages caps the spout's emissions; 0 means the full generator.
	Messages int64
}

// pipeTuple carries the key and its KeyDigest (computed once, when the
// spout routes the first edge, and re-derived downstream only when a
// stage emits a DIFFERENT key), plus the root emission time for
// latency, the root emission sequence number (windowed-aggregate stages
// derive window ids from it), the window id, and the tuple's weight
// (how many source tuples it stands for — partials carry their count).
type pipeTuple struct {
	key    string
	dig    core.KeyDigest
	root   time.Time
	seq    int64
	window int64
	weight int64
}

// Run executes the pipeline to completion.
func (p *Pipeline) Run(cfg PipelineConfig) (PipelineResult, error) {
	if len(p.stages) == 0 {
		return PipelineResult{}, fmt.Errorf("dspe: pipeline has no stages")
	}
	queueLen := cfg.QueueLen
	if queueLen <= 0 {
		queueLen = 128
	}

	// Build channels: stage s has stages[s].parallelism executors, each
	// with one bounded input channel.
	inputs := make([][]chan pipeTuple, len(p.stages))
	for s, spec := range p.stages {
		inputs[s] = make([]chan pipeTuple, spec.parallelism)
		for i := range inputs[s] {
			inputs[s][i] = make(chan pipeTuple, queueLen)
		}
	}

	// senderFor builds one partitioner per (sender executor, edge).
	senderFor := func(stage int, instance int) (core.Partitioner, error) {
		spec := p.stages[stage]
		c := cfg.Core
		c.Workers = spec.parallelism
		c.Instance = instance
		return core.New(spec.grouping, c)
	}

	// Validate every edge's grouping before any goroutine starts (the
	// executors assume construction succeeds).
	for s := range p.stages {
		if _, err := senderFor(s, 0); err != nil {
			return PipelineResult{}, err
		}
	}

	counts := make([][]int64, len(p.stages))
	accs := make([][]*aggregation.Accumulator, len(p.stages))
	for s, spec := range p.stages {
		counts[s] = make([]int64, spec.parallelism)
		if spec.aggWindow > 0 {
			accs[s] = make([]*aggregation.Accumulator, spec.parallelism)
			for ex := range accs[s] {
				accs[s][ex] = aggregation.NewAccumulatorMerger(ex, spec.merger)
			}
		}
	}
	lat := metrics.NewQuantiles(1 << 15)
	var latMu sync.Mutex

	// Bolt stages, last first so downstream consumers exist before
	// upstream producers start.
	var stageWGs []*sync.WaitGroup
	for range p.stages {
		stageWGs = append(stageWGs, &sync.WaitGroup{})
	}
	for s := len(p.stages) - 1; s >= 0; s-- {
		spec := p.stages[s]
		for ex := 0; ex < spec.parallelism; ex++ {
			stageWGs[s].Add(1)
			go func(s, ex int) {
				defer stageWGs[s].Done()
				spec := p.stages[s]
				var down core.Partitioner
				if s+1 < len(p.stages) {
					var err error
					down, err = senderFor(s+1, ex+spec.parallelism)
					if err != nil {
						panic(err) // validated before launch
					}
				}
				// cur is the tuple being processed; its root/seq/window
				// propagate onto emissions.
				var cur pipeTuple
				// send routes by the tuple's carried digest: downstream edges
				// re-key without re-scanning unchanged key bytes.
				send := func(tp pipeTuple) {
					inputs[s+1][down.RouteDigest(tp.dig, tp.key)] <- tp
				}
				// reDigest maps an emitted key to its digest: the carried one
				// when the key bytes are unchanged (the common pass-through
				// case reduces to a pointer compare), one fresh scan when the
				// stage emitted a genuinely new key.
				reDigest := func(key string) core.KeyDigest {
					if key == cur.key {
						return cur.dig
					}
					return core.Digest(key)
				}
				emit := func(key string) {
					if down == nil {
						return // leaf: emissions discarded
					}
					// Pass-through weight: a plain stage re-emitting a partial
					// tuple (e.g. a router between an aggregate stage and its
					// reducer) must not collapse a count-5000 partial to 1.
					send(pipeTuple{key: key, dig: reDigest(key), root: cur.root, seq: cur.seq, window: cur.window, weight: cur.weight})
				}
				emitW := func(key string, count int64) {
					if down == nil {
						return
					}
					send(pipeTuple{key: key, dig: reDigest(key), root: cur.root, seq: cur.seq, window: cur.window, weight: count})
				}
				var acc *aggregation.Accumulator
				var buf []aggregation.Partial
				if spec.aggWindow > 0 {
					acc = accs[s][ex]
				}
				// flushEmit closes windows below before and forwards one
				// weighted tuple per partial; root is the emission time of
				// the tuple that advanced the watermark (or the last tuple,
				// at end of input).
				flushEmit := func(before int64, root time.Time) {
					buf = acc.FlushBefore(before, buf[:0])
					if down == nil {
						return // leaf aggregate: partials counted, discarded
					}
					for i := range buf {
						pp := &buf[i]
						// The partial's weight is what the stage computed for
						// it: the fold of its tuples' weights through the
						// merger (== the plain count for the default
						// aggregate stage, whose fold is a sum of weights).
						weight := pp.Count
						if spec.merger != nil {
							weight = spec.merger.Result(pp.Val)
						}
						// The partial carries the digest its table was keyed
						// by; the reduce edge routes on it with zero re-scans.
						send(pipeTuple{
							key:    pp.Key,
							dig:    pp.Digest,
							root:   root,
							seq:    pp.Window * spec.aggWindow,
							window: pp.Window,
							weight: weight,
						})
					}
				}
				last := s == len(p.stages)-1
				for tp := range inputs[s][ex] {
					if spec.service > 0 {
						time.Sleep(spec.service)
					}
					cur = tp
					switch {
					case acc != nil:
						w := tp.seq / spec.aggWindow
						if wm, ok := acc.Watermark(); ok && w > wm {
							// One window of slack, as in Run: upstream executors
							// interleave, so the previous window may still have
							// tuples in flight.
							flushEmit(w-1, tp.root)
						}
						if spec.merger != nil {
							// Merge stage: the tuple's weight is the SAMPLE the
							// operator folds (one observation per tuple).
							acc.AddSample(w, tp.dig, tp.key, 1, tp.weight)
						} else {
							// Default aggregate stage: the weight folds into the
							// count (a count-5000 partial stands for 5000 tuples).
							acc.AddN(w, tp.dig, tp.key, tp.weight)
						}
					case spec.wfn != nil:
						spec.wfn(tp.key, tp.window, tp.weight, emitW)
					default:
						spec.fn(tp.key, emit)
					}
					counts[s][ex]++
					if last {
						latMu.Lock()
						lat.Add(float64(time.Since(tp.root)))
						latMu.Unlock()
					}
				}
				if acc != nil {
					flushEmit(1<<62, cur.root)
				}
			}(s, ex)
		}
	}

	// Spout stage: shared generator, one partitioner per spout for the
	// first edge.
	p.gen.Reset()
	limit := p.gen.Len()
	if cfg.Messages > 0 && cfg.Messages < limit {
		limit = cfg.Messages
	}
	// Spouts draw key slabs (one generator lock per slab) and route each
	// slab with one RouteBatch call on the first edge; tuples still flow
	// per message so downstream grouping semantics are unchanged.
	const spoutBatch = 64
	nextSlab, drawn := slabSource(p.gen, limit)

	start := time.Now()
	var spoutWG sync.WaitGroup
	for sp := 0; sp < p.spouts; sp++ {
		part, err := senderFor(0, sp)
		if err != nil {
			return PipelineResult{}, err
		}
		spoutWG.Add(1)
		go func(part core.Partitioner) {
			defer spoutWG.Done()
			keys := make([]string, spoutBatch)
			digs := make([]core.KeyDigest, spoutBatch)
			dsts := make([]int, spoutBatch)
			for {
				n, base := nextSlab(keys, nil)
				if n == 0 {
					return
				}
				// Hash-once: the digests routing computes here travel with
				// the tuples through every later stage.
				part.RouteBatchDigests(keys[:n], digs, dsts)
				for i := 0; i < n; i++ {
					inputs[0][dsts[i]] <- pipeTuple{key: keys[i], dig: digs[i], root: time.Now(), seq: base + int64(i), weight: 1}
				}
			}
		}(part)
	}

	// Drain stage by stage: once all senders of a stage are done, close
	// its executors' inputs; their exit unblocks the next stage's close.
	spoutWG.Wait()
	for s := range p.stages {
		for _, ch := range inputs[s] {
			close(ch)
		}
		stageWGs[s].Wait()
	}
	elapsed := time.Since(start)

	res := PipelineResult{
		Emitted: drawn(),
		Elapsed: elapsed,
		P50:     time.Duration(lat.Quantile(0.50)),
		P95:     time.Duration(lat.Quantile(0.95)),
		P99:     time.Duration(lat.Quantile(0.99)),
	}
	for s, spec := range p.stages {
		sr := StageResult{Name: spec.name, Loads: counts[s]}
		for _, c := range counts[s] {
			sr.Processed += c
		}
		sr.Imbalance = metrics.Imbalance(counts[s])
		for _, acc := range accs[s] {
			sr.AggPartials += acc.Flushed()
			sr.AggWindows += acc.Closed()
		}
		res.Stages = append(res.Stages, sr)
	}
	p.gen.Reset()
	return res, nil
}

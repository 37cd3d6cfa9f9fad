package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"slb"
	"slb/internal/telemetry"
	"slb/internal/transport"
)

// e2e.go is the untraced pass: the timed region every end-to-end metric
// comes from. A run repeats whole rounds (every cell once, at its fixed
// message count) until -seconds is used, then reports per-cell medians
// over rounds, combined across cells by geometric mean.

// routeSlab is the slab route-scale hands RouteBatchDigests.
const routeSlab = 256

// warmup is how long every core spins before each round (and six times
// that before set-up); see warmCPUs.
const warmup = 250 * time.Millisecond

// sample is what one cell-round measured.
type sample struct {
	msgs     int64
	wall     time.Duration
	cpu      time.Duration
	p50, p99 float64   // ms: the engine's percentiles for this round
	lat      []float64 // ns: route-scale's per-call durations, pooled over rounds
	loadMax  float64   // max worker load / mean load (exact-repeat)
	repl     float64   // aggregation replication (exact-repeat; 0 without an engine)
	errs     []string
}

// prepared is a workload's set-up product: the materialised streams by
// skew and, for engine cells, the reference finals per cell.
type prepared struct {
	streams map[float64][]string
	refs    map[string]fingerprint
}

// prepare is the set-up whose duration setup_s reports: stream
// materialisation (alias tables, key slabs), the plain-map reference
// computation, and for route-scale the construction of every cell's
// partitioner (n=4096 sketches and load trees are not free).
func prepare(w *workload, sc scale, seed uint64) (*prepared, error) {
	p := &prepared{streams: map[float64][]string{}, refs: map[string]fingerprint{}}
	for _, c := range w.Cells {
		if _, ok := p.streams[c.Z]; !ok {
			p.streams[c.Z] = materialise(c.Z, w.Keys, sc.slab(w), seed)
		}
		if w.Engine {
			p.refs[c.Name] = groundTruth(newCycle(p.streams[c.Z], sc.msgs(c)), w.Job.AggWindow)
			continue
		}
		part, err := slb.New(c.Alg, slb.Config{Workers: c.Workers, Seed: routeSeed})
		if err != nil {
			return nil, err
		}
		n := min(routeSlab, len(p.streams[c.Z]))
		slb.RouteBatchDigests(part, p.streams[c.Z][:n], make([]slb.KeyDigest, n), make([]int, n))
	}
	return p, nil
}

// timedSetup runs prepare five times and returns the last product with
// the median duration, so one slow page-fault storm does not decide
// setup_s.
func timedSetup(w *workload, sc scale, seed uint64) (*prepared, float64, error) {
	var durs []float64
	var prep *prepared
	for i := 0; i < 5; i++ {
		prep = nil
		// Hand the previous product back to the OS first, or peak RSS
		// depends on whether the sweeper got to it before the next slab.
		debug.FreeOSMemory()
		t0 := time.Now()
		p, err := prepare(w, sc, seed)
		if err != nil {
			return nil, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		prep = p
	}
	return prep, median(durs), nil
}

// routeCell routes one cell's messages through a fresh partitioner. The
// timed region is the whole source loop — draw a slab, route it, tally
// the loads — and each RouteBatchDigests call is timed on its own for
// the latency percentiles. With a tracer the same loop records spans.
func routeCell(c cell, slab []string, msgs int64, tr *tracer) sample {
	s := sample{msgs: msgs}
	part, err := slb.New(c.Alg, slb.Config{Workers: c.Workers, Seed: routeSeed})
	if err != nil {
		s.errs = append(s.errs, err.Error())
		return s
	}
	gen := newCycle(slab, msgs)
	keys := make([]string, routeSlab)
	digs := make([]slb.KeyDigest, routeSlab)
	dst := make([]int, routeSlab)
	loads := make([]int64, c.Workers)
	lat := make([]float64, 0, msgs/routeSlab+1)
	var nNext, nRoute uint8
	var root int32
	if tr != nil {
		nNext, nRoute = tr.nameID("stream.next_batch"), tr.nameID("core.route")
		root = tr.begin(tr.nameID("cell "+c.Name), 0, -1)
	}
	cpu0, t0 := cpuTime(), time.Now()
	for i := 0; ; i++ {
		var id int32
		if tr != nil {
			id = tr.begin(nNext, root, i)
		}
		n := gen.NextBatch(keys)
		if tr != nil {
			tr.end(id)
		}
		if n == 0 {
			break
		}
		if tr != nil {
			id = tr.begin(nRoute, root, i)
		}
		ts := time.Now()
		slb.RouteBatchDigests(part, keys[:n], digs, dst)
		d := time.Since(ts)
		if tr != nil {
			tr.end(id)
		}
		lat = append(lat, float64(d))
		for _, w := range dst[:n] {
			loads[w]++
		}
	}
	s.wall, s.cpu = time.Since(t0), cpuTime()-cpu0
	if tr != nil {
		tr.end(root)
	}
	s.lat = lat
	var ck checks
	s.loadMax = ck.checkLoads(c.Name, loads, msgs)
	s.errs = ck.errs
	return s
}

// engineRun is one RunTopology call measured from outside.
type engineRun struct {
	res  slb.EngineResult
	fp   fingerprint
	wall time.Duration
	cpu  time.Duration
	err  error
}

// runEngine executes the workload's topology for one algorithm over the
// first msgs messages of slab. Sources is always 1: the engine's own
// ack window is the closed loop.
func runEngine(j job, alg string, slab []string, msgs int64, reg *telemetry.Registry, chaos *transport.ChaosConfig) engineRun {
	var r engineRun
	cfg := slb.EngineConfig{
		Workers: j.Workers, Sources: 1, Algorithm: alg,
		Core:        slb.Config{Seed: routeSeed},
		ServiceTime: j.Service, Window: j.Window, Batch: j.Batch,
		AggWindow: j.AggWindow, AggShards: j.Shards,
		OnFinal:   r.fp.addFinal,
		Transport: j.Transport, Telemetry: reg, Chaos: chaos,
	}
	cpu0, t0 := cpuTime(), time.Now()
	r.res, r.err = slb.RunTopology(newCycle(slab, msgs), cfg)
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	return r
}

// check verifies an engine run against the reference finals and
// returns its failures with the run's max-over-mean worker load.
func (r *engineRun) check(who string, msgs int64, ref fingerprint) ([]string, float64) {
	var ck checks
	if r.err != nil {
		ck.failf("%s: %v", who, r.err)
		return ck.errs, 0
	}
	if r.res.Completed != msgs {
		ck.failf("%s: completed %d of %d", who, r.res.Completed, msgs)
	}
	loadMax := ck.checkLoads(who, r.res.Loads, msgs)
	ck.checkFinals(who, r.fp, ref, msgs)
	return ck.errs, loadMax
}

func engineCell(w *workload, c cell, prep *prepared, msgs int64) sample {
	r := runEngine(w.Job, c.Alg, prep.streams[c.Z], msgs, nil, nil)
	s := sample{msgs: msgs, wall: r.wall, cpu: r.cpu}
	s.errs, s.loadMax = r.check(c.Name, msgs, prep.refs[c.Name])
	s.p50 = float64(r.res.P50) / 1e6
	s.p99 = float64(r.res.P99) / 1e6
	s.repl = r.res.AggReplication
	return s
}

// cellResult is one cell's medians over the rounds of a run.
type cellResult struct {
	Name        string   `json:"name"`
	Msgs        int64    `json:"msgs_per_round"`
	Rounds      int      `json:"rounds"`
	MsgsPerS    float64  `json:"msgs_per_s"`
	CPUNsPerMsg float64  `json:"cpu_ns_per_msg"`
	P50ms       float64  `json:"latency_p50_ms"`
	P99ms       float64  `json:"latency_p99_ms"`
	LatSamples  int64    `json:"latency_samples"` // per round; on route-scale pooled over rounds
	LoadMax     float64  `json:"load_max_over_mean"`
	Replication float64  `json:"replication,omitempty"`
	Failed      int64    `json:"failed_msgs"`
	Errors      []string `json:"errors,omitempty"`
}

func summarise(w *workload, c cell, ss []sample) cellResult {
	cr := cellResult{Name: c.Name, Rounds: len(ss)}
	var thr, cpu, p50, p99 []float64
	for _, s := range ss {
		cr.Msgs = s.msgs
		thr = append(thr, float64(s.msgs)/s.wall.Seconds())
		cpu = append(cpu, float64(s.cpu)/float64(s.msgs))
		p50 = append(p50, s.p50)
		p99 = append(p99, s.p99)
		cr.LoadMax, cr.Replication = s.loadMax, s.repl
		if len(s.errs) > 0 {
			cr.Failed += s.msgs
			cr.Errors = append(cr.Errors, s.errs...)
		}
	}
	cr.MsgsPerS, cr.CPUNsPerMsg, cr.P50ms, cr.P99ms = median(thr), median(cpu), median(p50), median(p99)
	cr.LatSamples = (cr.Msgs + 7) / 8 // the engine stamps one tuple in eight
	if !w.Engine {
		// Every call was timed: pool the rounds, so a cell of a thousand
		// slabs still has tens of samples beyond its p99.
		var pool []float64
		for _, s := range ss {
			pool = append(pool, s.lat...)
		}
		sort.Float64s(pool)
		cr.P50ms, cr.P99ms = quantile(pool, 0.50)/1e6, quantile(pool, 0.99)/1e6
		cr.LatSamples = int64(len(pool))
	}
	return cr
}

// minShapeSamples is the latency sample count below which the
// statistical shape checks are skipped: a p99 needs at least ten
// samples beyond it.
const minShapeSamples = 1000

// shapeErrors checks what must hold between the cells of a workload.
func shapeErrors(w *workload, cells []cellResult) []string {
	by := map[string]cellResult{}
	for _, c := range cells {
		by[c.Name] = c
	}
	var errs []string
	if !w.Engine {
		// Head-aware schemes never balance worse than PKG on the same
		// (n, z); 0.01 absorbs the last-message jitter of equal loads.
		for _, c := range w.Cells {
			pkg := by[fmt.Sprintf("PKG.n%d.z%.1f", c.Workers, c.Z)]
			if c.Alg != "PKG" && by[c.Name].LoadMax > pkg.LoadMax+0.01 {
				errs = append(errs, fmt.Sprintf("%s: load max/mean %.4f exceeds PKG's %.4f", c.Name, by[c.Name].LoadMax, pkg.LoadMax))
			}
		}
		return errs
	}
	pkg, dc, wc := by["PKG"], by["D-C"], by["W-C"]
	if len(w.Cells) != 3 || pkg.LatSamples < minShapeSamples {
		return nil
	}
	// The paper's Fig. 13/14 ordering: throughput PKG < D-C <= W-C,
	// tail latency the other way round.
	if !(2*pkg.MsgsPerS < dc.MsgsPerS) {
		errs = append(errs, fmt.Sprintf("shape: thr(D-C)=%.0f is not above 2*thr(PKG)=%.0f", dc.MsgsPerS, 2*pkg.MsgsPerS))
	}
	if !(dc.MsgsPerS <= 1.1*wc.MsgsPerS) {
		errs = append(errs, fmt.Sprintf("shape: thr(D-C)=%.0f exceeds 1.1*thr(W-C)=%.0f", dc.MsgsPerS, 1.1*wc.MsgsPerS))
	}
	if !(pkg.P99ms > dc.P99ms) {
		errs = append(errs, fmt.Sprintf("shape: p99(PKG)=%.2fms is not above p99(D-C)=%.2fms", pkg.P99ms, dc.P99ms))
	}
	return errs
}

// warmCPUs spins every core for d. A virtual CPU that has been idle
// wakes late from timer sleeps until it has been busy for a while, and
// the state is sticky: on the reference host storm-1ms reads 12.1k msgs/s
// after an idle minute and 14.4k after a CPU-bound run, for the whole
// run. 1.5 s of load flips it; a run therefore starts with that, and
// every round with a short top-up, so all cells see the same busy state.
func warmCPUs(d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t0 := time.Now(); time.Since(t0) < d; {
			}
		}()
	}
	wg.Wait()
}

// warm is warmCPUs at full scale; -quick runs are for tests and skip it.
func (s scale) warm(d time.Duration) {
	if !s.quick {
		warmCPUs(d)
	}
}

// untraced runs the timed region and fills the end-to-end metrics.
func untraced(w *workload, sc scale, prep *prepared, seconds float64, out *runResult) {
	samples := make([][]sample, len(w.Cells))
	start := time.Now()
	for {
		roundStart := time.Now()
		sc.warm(warmup)
		for i, c := range w.Cells {
			runtime.GC()
			var s sample
			if w.Engine {
				s = engineCell(w, c, prep, sc.msgs(c))
			} else {
				s = routeCell(c, prep.streams[c.Z], sc.msgs(c), nil)
			}
			samples[i] = append(samples[i], s)
		}
		if time.Since(start)+time.Since(roundStart) > time.Duration(seconds*float64(time.Second)) {
			break
		}
	}
	var thr, cpu, p50, p99 []float64
	for i, c := range w.Cells {
		cr := summarise(w, c, samples[i])
		out.Cells = append(out.Cells, cr)
		out.Attempted += cr.Msgs * int64(cr.Rounds)
		out.Failed += cr.Failed
		out.Errors = append(out.Errors, cr.Errors...)
		thr, cpu = append(thr, cr.MsgsPerS), append(cpu, cr.CPUNsPerMsg)
		p50, p99 = append(p50, cr.P50ms), append(p99, cr.P99ms)
	}
	if errs := shapeErrors(w, out.Cells); len(errs) > 0 {
		out.Errors = append(out.Errors, errs...)
		out.Failed = out.Attempted
	}
	out.set("msgs_per_s", geomean(thr))
	out.set("cpu_ns_per_msg", geomean(cpu))
	out.set("latency_p50_ms", geomean(p50))
	out.set("latency_p99_ms", geomean(p99))
}

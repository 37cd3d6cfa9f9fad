package eventsim

// telemetry.go bridges one simulation run into a telemetry.Registry
// (Config.Telemetry). The event loop is single-threaded; all hooks
// write through the registry's atomics, so a snapshot goroutine (the
// soak harness's interval ticker) reads a consistent view mid-run
// without any coordination with the simulation. Durations published
// here are SIMULATED time (the simulation's ms clock, stored as ns),
// not wall clock — deterministic for a given seed and config.
//
// Series registered per run (labels: engine=eventsim, algo, plus
// spout/worker/shard where noted):
//
//	route_*                  per spout — see core.NewRouteRecorder;
//	                         published every routeFlushEvery messages,
//	                         route_ns_total stays 0 (routing cost is
//	                         not part of the simulated model)
//	sim_emitted_total        messages emitted
//	sim_completed_total      messages fully processed
//	sim_clock_ns             current simulated time
//	queue_depth              per worker gauge, in queued messages
//	sim_peak_queue           largest backlog any worker ever held
//	flush_stall_ns_total     simulated time workers spent blocked
//	                         admitting partials into full reducer-shard
//	                         queues (backpressure)
//	reduce_busy_ns_total     per shard: simulated merge service admitted
//	reduce_queue_peak        per shard gauge: backlog high-water mark
//	reduce_open_windows      per shard gauge: open windows
//	reduce_live_entries      per shard gauge: live (window, key) rows
//	reduce_replication       per shard gauge: state replication so far,
//	                         distinct (window, key, worker) per distinct
//	                         (window, key)
//
// All methods are no-ops on a nil receiver.

import (
	"strconv"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/telemetry"
)

// routeFlushEvery is how many routed messages accumulate per source
// before the RouteRecorder publishes their deltas: eventsim routes one
// message per emit event, so per-message publishing would pay ~13
// atomic adds per message; amortizing over 256 keeps the loop's cost
// profile intact.
const routeFlushEvery = 256

type simTelemetry struct {
	reg  *telemetry.Registry
	base []telemetry.Label

	parts       []core.Partitioner
	recs        []*core.RouteRecorder
	routedSince []int

	emitted    *telemetry.Counter
	completed  *telemetry.Counter
	flushStall *telemetry.Counter
	clock      *telemetry.Gauge
	peakQueue  *telemetry.Gauge
	queueDepth []*telemetry.Gauge   // per worker
	reduceBusy []*telemetry.Counter // per shard
	reducePeak []*telemetry.Gauge   // per shard
}

// newSimTelemetry registers the run's series; nil when cfg.Telemetry is
// nil. cfg must have defaults applied.
func newSimTelemetry(cfg Config, parts []core.Partitioner) *simTelemetry {
	reg := cfg.Telemetry
	if reg == nil {
		return nil
	}
	tel := &simTelemetry{
		reg: reg,
		base: []telemetry.Label{
			telemetry.L("engine", "eventsim"),
			telemetry.L("algo", cfg.Algorithm),
		},
		parts:       parts,
		recs:        make([]*core.RouteRecorder, len(parts)),
		routedSince: make([]int, len(parts)),
	}
	for s := range parts {
		tel.recs[s] = core.NewRouteRecorder(reg, tel.with("spout", s)...)
	}
	tel.emitted = reg.Counter("sim_emitted_total", tel.base...)
	tel.completed = reg.Counter("sim_completed_total", tel.base...)
	tel.clock = reg.Gauge("sim_clock_ns", tel.base...)
	tel.peakQueue = reg.Gauge("sim_peak_queue", tel.base...)
	tel.queueDepth = make([]*telemetry.Gauge, cfg.Workers)
	for w := range tel.queueDepth {
		tel.queueDepth[w] = reg.Gauge("queue_depth", tel.with("worker", w)...)
	}
	if cfg.AggWindow > 0 {
		tel.flushStall = reg.Counter("flush_stall_ns_total", tel.base...)
		tel.reduceBusy = make([]*telemetry.Counter, cfg.AggShards)
		tel.reducePeak = make([]*telemetry.Gauge, cfg.AggShards)
		for r := range tel.reduceBusy {
			ls := tel.with("shard", r)
			tel.reduceBusy[r] = reg.Counter("reduce_busy_ns_total", ls...)
			tel.reducePeak[r] = reg.Gauge("reduce_queue_peak", ls...)
		}
	}
	return tel
}

func (tel *simTelemetry) with(key string, idx int) []telemetry.Label {
	ls := make([]telemetry.Label, 0, len(tel.base)+1)
	ls = append(ls, tel.base...)
	return append(ls, telemetry.L(key, strconv.Itoa(idx)))
}

// simNS converts the simulation's ms clock to integer nanoseconds.
func simNS(ms float64) int64 { return int64(ms * 1e6) }

// noteEmit records one emitted message routed by source s and the
// destination worker's resulting backlog.
func (tel *simTelemetry) noteEmit(s, w, backlog int, now float64) {
	if tel == nil {
		return
	}
	tel.emitted.Inc()
	tel.queueDepth[w].SetInt(int64(backlog))
	tel.clock.SetInt(simNS(now))
	tel.routedSince[s]++
	if tel.routedSince[s] >= routeFlushEvery {
		tel.recs[s].RecordBatch(tel.parts[s], tel.routedSince[s], 0)
		tel.routedSince[s] = 0
	}
}

// noteDone records one completed message and the worker's remaining
// backlog.
func (tel *simTelemetry) noteDone(w, backlog int, now float64) {
	if tel == nil {
		return
	}
	tel.completed.Inc()
	tel.queueDepth[w].SetInt(int64(backlog))
	tel.clock.SetInt(simNS(now))
}

func (tel *simTelemetry) notePeakQueue(peak int) {
	if tel != nil {
		tel.peakQueue.SetInt(int64(peak))
	}
}

// noteFlush records one worker flush: the simulated backpressure stall
// (release time beyond serialization) and each shard's admitted merge
// service.
func (tel *simTelemetry) noteFlush(stallMS float64) {
	if tel != nil && stallMS > 0 {
		tel.flushStall.Add(simNS(stallMS))
	}
}

func (tel *simTelemetry) noteAdmit(shard int, mergeCostMS float64, peak int) {
	if tel == nil {
		return
	}
	tel.reduceBusy[shard].Add(simNS(mergeCostMS))
	tel.reducePeak[shard].SetInt(int64(peak))
}

// flushRoutes publishes any remaining per-source routing deltas (end of
// stream).
func (tel *simTelemetry) flushRoutes() {
	if tel == nil {
		return
	}
	for s := range tel.recs {
		if tel.routedSince[s] > 0 {
			tel.recs[s].RecordBatch(tel.parts[s], tel.routedSince[s], 0)
			tel.routedSince[s] = 0
		}
	}
}

// observeReduce registers the per-shard reducer occupancy and
// replication gauges over the run's driver.
func (tel *simTelemetry) observeReduce(d *aggregation.Driver, shards int) {
	if tel == nil || d == nil {
		return
	}
	for r := 0; r < shards; r++ {
		r := r
		ls := tel.with("shard", r)
		tel.reg.GaugeFunc("reduce_open_windows", func() float64 { w, _, _ := d.Live(r); return float64(w) }, ls...)
		tel.reg.GaugeFunc("reduce_live_entries", func() float64 { _, e, _ := d.Live(r); return float64(e) }, ls...)
		tel.reg.GaugeFunc("reduce_replication", func() float64 { _, _, f := d.Live(r); return f }, ls...)
	}
}

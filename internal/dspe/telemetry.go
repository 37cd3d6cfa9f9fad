package dspe

// telemetry.go bridges one engine run into a telemetry.Registry
// (Config.Telemetry). The hooks follow the registry's hot-path
// discipline: everything per-message stays in goroutine-local state the
// engine already keeps; the bridge publishes per-slab deltas (route
// recorders, stall/busy counters) or registers snapshot-time collectors
// (queue-depth and reducer-occupancy gauge funcs). A nil registry means
// a nil *planeTelemetry, and every method on a nil receiver is a no-op,
// so the engine carries one field and never branches on configuration
// beyond `pt != nil` where a time.Now pair would otherwise be paid.
//
// Series registered per run (labels: engine=dspe-memory|dspe-tcp after
// Config.Transport, algo, plus spout/worker/shard where noted).
// "Waiting" below is one wait episode of the goroutine's Parker: the
// yield phase plus the park.
//
//	route_*                      per spout — see core.NewRouteRecorder
//	spout_ack_wait_ns_total      per spout: waiting for in-flight window
//	                             slots (ack backpressure), including
//	                             flushing the links first
//	spout_ack_window             per spout gauge: the current in-flight
//	                             ack window (grows adaptively over TCP
//	                             when Config.Window was left at its
//	                             default)
//	spout_parks_total            per spout: times the spout parked on
//	                             its ack window
//	queue_depth                  per worker gauge, in tuples: messages
//	                             delivered to the bolt's source links and
//	                             not yet received (sum of Link.Len)
//	bolt_msgs_total              per worker: tuples processed
//	acquire_stall_ns_total       per worker: waiting with every source
//	                             link empty (input starvation)
//	bolt_parks_total             per worker: times the bolt parked on
//	                             its empty source links
//	shard_parks_total            per shard: times the reducer shard
//	                             parked on its bolt links
//	bolt_partials_total          partials flushed by all bolts
//	reduce_partials_total        per shard: partials the reducer merged
//	                             (they sum to bolt_partials_total: nothing
//	                             pre-merges between bolt and reducer)
//	reduce_busy_ns_total         per shard: reducer goroutine busy time
//	reduce_open_windows          per shard gauge: open windows
//	reduce_live_entries          per shard gauge: live (window, key) rows
//	reduce_replication           per shard gauge: state replication so
//	                             far, distinct (window, key, worker) per
//	                             distinct (window, key)
//
// A spout waiting for link space has no series of its own: links hold
// two ack windows (ringCapFor), so the wait shows up as ack wait first,
// and the TCP backend counts its own transport_send_stalls_total.
//
// GaugeFuncs are replace-on-reregister in the registry, so repeated
// runs against one registry (the soak harness) always read the current
// run's links and drivers.

import (
	"time"

	"slb/internal/core"
	"slb/internal/telemetry"
	"slb/internal/transport"
)

// engineName returns the engine label value for the configured backend.
func engineName(t Transport) string {
	if t == TransportTCP {
		return "dspe-tcp"
	}
	return "dspe-memory"
}

type planeTelemetry struct {
	reg  *telemetry.Registry
	base []telemetry.Label // engine, algo

	recs         []*core.RouteRecorder // per spout
	ackWait      []*telemetry.Counter  // per spout
	ackWindow    []*telemetry.Gauge    // per spout
	spoutParks   []*telemetry.Counter  // per spout
	boltMsgs     []*telemetry.Counter  // per worker
	acquireStall []*telemetry.Counter  // per worker
	boltParks    []*telemetry.Counter  // per worker
	shardParks   []*telemetry.Counter  // per shard
	boltPartials *telemetry.Counter
	reduceParts  []*telemetry.Counter // per shard
	reduceBusy   []*telemetry.Counter // per shard
}

// newPlaneTelemetry registers the run's counter series and returns the
// bridge; nil when cfg.Telemetry is nil.
func newPlaneTelemetry(cfg Config) *planeTelemetry {
	reg := cfg.Telemetry
	if reg == nil {
		return nil
	}
	pt := &planeTelemetry{
		reg: reg,
		base: []telemetry.Label{
			telemetry.L("engine", engineName(cfg.Transport)),
			telemetry.L("algo", cfg.Algorithm),
		},
	}
	pt.recs = make([]*core.RouteRecorder, cfg.Sources)
	pt.ackWait = make([]*telemetry.Counter, cfg.Sources)
	pt.ackWindow = make([]*telemetry.Gauge, cfg.Sources)
	pt.spoutParks = make([]*telemetry.Counter, cfg.Sources)
	for s := range pt.recs {
		ls := telemetry.With(pt.base, "spout", s)
		pt.recs[s] = core.NewRouteRecorder(reg, ls...)
		pt.ackWait[s] = reg.Counter("spout_ack_wait_ns_total", ls...)
		pt.ackWindow[s] = reg.Gauge("spout_ack_window", ls...)
		pt.spoutParks[s] = reg.Counter("spout_parks_total", ls...)
	}
	pt.boltMsgs = make([]*telemetry.Counter, cfg.Workers)
	pt.acquireStall = make([]*telemetry.Counter, cfg.Workers)
	pt.boltParks = make([]*telemetry.Counter, cfg.Workers)
	for w := range pt.boltMsgs {
		ls := telemetry.With(pt.base, "worker", w)
		pt.boltMsgs[w] = reg.Counter("bolt_msgs_total", ls...)
		pt.acquireStall[w] = reg.Counter("acquire_stall_ns_total", ls...)
		pt.boltParks[w] = reg.Counter("bolt_parks_total", ls...)
	}
	if cfg.AggWindow > 0 {
		pt.boltPartials = reg.Counter("bolt_partials_total", pt.base...)
		pt.reduceParts = make([]*telemetry.Counter, cfg.AggShards)
		pt.reduceBusy = make([]*telemetry.Counter, cfg.AggShards)
		pt.shardParks = make([]*telemetry.Counter, cfg.AggShards)
		for r := range pt.reduceBusy {
			ls := telemetry.With(pt.base, "shard", r)
			pt.shardParks[r] = reg.Counter("shard_parks_total", ls...)
			pt.reduceParts[r] = reg.Counter("reduce_partials_total", ls...)
			pt.reduceBusy[r] = reg.Counter("reduce_busy_ns_total", ls...)
		}
	}
	return pt
}

// recordRoute publishes one routed slab for spout s (nil-safe).
func (pt *planeTelemetry) recordRoute(s int, p core.Partitioner, n int, elapsed time.Duration) {
	if pt != nil {
		pt.recs[s].RecordBatch(p, n, elapsed)
	}
}

func (pt *planeTelemetry) addAckWait(s int, d time.Duration) {
	if pt != nil && d > 0 {
		pt.ackWait[s].Add(d.Nanoseconds())
	}
}

// setAckWindow publishes spout s's current (possibly adaptively grown)
// in-flight ack window (nil-safe).
func (pt *planeTelemetry) setAckWindow(s int, win int64) {
	if pt != nil {
		pt.ackWindow[s].SetInt(win)
	}
}

func (pt *planeTelemetry) addBoltMsgs(w, n int) {
	if pt != nil && n > 0 {
		pt.boltMsgs[w].Add(int64(n))
	}
}

func (pt *planeTelemetry) addAcquireStall(w int, d time.Duration) {
	if pt != nil && d > 0 {
		pt.acquireStall[w].Add(d.Nanoseconds())
	}
}

func (pt *planeTelemetry) addSpoutPark(s int) {
	if pt != nil {
		pt.spoutParks[s].Inc()
	}
}

func (pt *planeTelemetry) addBoltPark(w int) {
	if pt != nil {
		pt.boltParks[w].Inc()
	}
}

func (pt *planeTelemetry) addShardPark(r int) {
	if pt != nil {
		pt.shardParks[r].Inc()
	}
}

func (pt *planeTelemetry) addBoltPartials(n int) {
	if pt != nil && n > 0 {
		pt.boltPartials.Add(int64(n))
	}
}

func (pt *planeTelemetry) addReduce(r, partials int, busy time.Duration) {
	if pt != nil {
		if partials > 0 {
			pt.reduceParts[r].Add(int64(partials))
		}
		if busy > 0 {
			pt.reduceBusy[r].Add(busy.Nanoseconds())
		}
	}
}

// observeQueues registers per-bolt queue-depth gauges over the
// spout→bolt links in[source][worker] (depth in tuples, summed over
// spouts).
func (pt *planeTelemetry) observeQueues(in [][]*transport.Link) {
	if pt == nil {
		return
	}
	for w := range in[0] {
		pt.reg.GaugeFunc("queue_depth", func() float64 {
			n := 0
			for s := range in {
				n += in[s][w].Len()
			}
			return float64(n)
		}, telemetry.With(pt.base, "worker", w)...)
	}
}

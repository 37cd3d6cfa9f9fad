package main

import (
	"encoding/json"
	"fmt"
	"time"

	"slb"
)

// spec.go is the single source of the benchmark's names: the four
// workloads, their cells and message counts, and every metric with its
// unit, direction and bound. `bench spec` renders it as BENCHMARK.json
// (bench_test.go pins the committed file to that rendering), so the
// names later issues cite cannot drift from what the code emits.

// routeSeed is the partitioners' hash seed. It is a property of the
// system under test, not of the input: -seed only draws the stream, so
// hot-key candidate collisions (PKG's luck) do not move between runs.
const routeSeed = 7

// runSeconds is BENCHMARK.json's run_seconds: the timed region of one
// untraced run repeats whole rounds until this much time is used.
const runSeconds = 20

// algs are the paper's schemes the benchmark compares.
var algs = []string{"PKG", "D-C", "W-C"}

// cell is one fixed-size unit of work inside a workload: an algorithm
// at a worker count and skew, over a fixed number of messages per round
// (fixed counts, never time, so finals, loads and replication repeat
// exactly for a given seed).
type cell struct {
	Name    string
	Alg     string
	Workers int
	Z       float64
	Msgs    int64 // messages per round at full scale
	Quick   int64 // messages per round under -quick
}

// job is the engine shape of a workload: what RunTopology is given.
// route-scale has no engine in its timed region; its job is only used
// by the traced passes, so every per-layer name exists on every
// workload.
type job struct {
	Alg       string
	Workers   int
	Z         float64
	Transport slb.Transport
	Shards    int
	AggWindow int64
	Window    int
	Batch     int
	Service   time.Duration
}

type workload struct {
	Name   string
	Why    string
	Keys   int
	Slab   int  // materialised stream length at full scale
	Engine bool // timed region runs RunTopology (else the library only)
	Cells  []cell
	Job    job
}

const (
	fullSlab  = 4 << 20
	quickSlab = 100_000
)

// routeKeys is route-scale's key universe; routeMatrix its twelve cells,
// which every traced run also measures.
const routeKeys = 100_000

var routeMatrix = routeCells()

func routeCells() []cell {
	type size struct{ msgs, quick int64 }
	sizes := map[string]size{
		"PKG.n64":   {4 << 20, 100_000},
		"PKG.n4096": {4 << 20, 100_000},
		"D-C.n64":   {2 << 20, 100_000},
		"W-C.n64":   {2 << 20, 100_000},
		"W-C.n4096": {1 << 20, 100_000},
		"D-C.n4096": {256 << 10, 50_000},
	}
	var cells []cell
	for _, n := range []int{64, 4096} {
		for _, z := range []float64{0.8, 2.0} {
			for _, a := range algs {
				s := sizes[fmt.Sprintf("%s.n%d", a, n)]
				cells = append(cells, cell{
					Name: fmt.Sprintf("%s.n%d.z%.1f", a, n, z), Alg: a, Workers: n, Z: z,
					Msgs: s.msgs, Quick: s.quick,
				})
			}
		}
	}
	return cells
}

var workloads = []workload{
	{
		Name: "route-scale",
		Why:  "library only: {PKG,D-C,W-C} x n {64,4096} x z {0.8,2.0} through RouteBatchDigests; hashing+spacesaving+core do all the work, transport/aggregation/dspe none",
		Keys: routeKeys, Slab: fullSlab,
		Cells: routeMatrix,
		Job: job{Alg: "D-C", Workers: 64, Z: 0.8, Transport: slb.TransportMemory,
			Shards: 2, AggWindow: 10_000, Window: 4096, Batch: 256},
	},
	{
		Name: "agg-mem",
		Why:  "D-C topology over the memory transport, z=0.8 so windows are high-cardinality (0.7 partials/msg): aggregation and the in-process dataplane dominate, no socket",
		Keys: 100_000, Slab: fullSlab, Engine: true,
		Cells: []cell{{Name: "D-C", Alg: "D-C", Workers: 8, Z: 0.8, Msgs: 8 << 20, Quick: 100_000}},
		Job: job{Alg: "D-C", Workers: 8, Z: 0.8, Transport: slb.TransportMemory,
			Shards: 2, AggWindow: 10_000, Window: 4096, Batch: 256},
	},
	{
		Name: "wire-tcp",
		Why:  "same topology over 24 loopback TCP links, z=1.4 so partials are few and the key dictionary is warm: frame codec, sockets, acks and the sender pipeline dominate",
		Keys: 100_000, Slab: fullSlab, Engine: true,
		Cells: []cell{{Name: "D-C", Alg: "D-C", Workers: 8, Z: 1.4, Msgs: 4 << 20, Quick: 100_000}},
		Job: job{Alg: "D-C", Workers: 8, Z: 1.4, Transport: slb.TransportTCP,
			Shards: 2, AggWindow: 10_000, Window: 4096, Batch: 256},
	},
	{
		Name: "storm-1ms",
		Why:  "the paper's Storm run: 1 ms sleep per message on 32 workers, so throughput is set by balance quality (1/max load share) and the cores idle; CPU optimisations predict no change",
		Keys: 10_000, Slab: 256 << 10, Engine: true,
		Cells: []cell{
			{Name: "PKG", Alg: "PKG", Workers: 32, Z: 1.4, Msgs: 9_000, Quick: 1_200},
			{Name: "D-C", Alg: "D-C", Workers: 32, Z: 1.4, Msgs: 24_000, Quick: 3_200},
			{Name: "W-C", Alg: "W-C", Workers: 32, Z: 1.4, Msgs: 30_000, Quick: 4_000},
		},
		Job: job{Alg: "D-C", Workers: 32, Z: 1.4, Transport: slb.TransportMemory,
			Shards: 1, AggWindow: 2_000, Service: time.Millisecond},
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// scale picks full or -quick sizes.
type scale struct{ quick bool }

func (s scale) msgs(c cell) int64 {
	if s.quick {
		return c.Quick
	}
	return c.Msgs
}

func (s scale) slab(w *workload) int {
	if s.quick && w.Slab > quickSlab {
		return quickSlab
	}
	return w.Slab
}

func (s scale) String() string {
	if s.quick {
		return "quick"
	}
	return "full"
}

// metricDecl declares one metric. Exact marks counts that repeat
// exactly for a fixed seed: `bench compare` tests them for equality
// instead of against run-to-run spread.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	Exact  bool
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them on its untraced run. A bound is three times
// the widest inter-quartile spread any workload showed over ten seeds
// on the reference host (a shared 2-core VM), capped at the driver's
// 25%: cpu_ns_per_msg owes its bound to storm-1ms, whose CPU is idle
// polling, msgs_per_s and latency_p50_ms to agg-mem, latency_p99_ms to
// route-scale.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ns_per_msg", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// perLayer are the traced run's metrics; the prefix is the module
// measured. Every workload reports every one of them on its traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	lo := func(name, unit string) metricDecl { return metricDecl{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDecl { return metricDecl{Name: name, Unit: unit, Better: "higher"} }
	exact := func(d metricDecl) metricDecl { d.Exact = true; return d }
	ms := []metricDecl{
		// Pass 1: staged single-goroutine replay of the workload's job.
		lo("stream.next_batch_ns_per_msg", "ns"),
		lo("hashing.digest_ns_per_msg", "ns"),
		lo("spacesaving.offer_ns_per_msg", "ns"),
		lo("core.route_ns_per_msg", "ns"),
		lo("core.route_self_ns_per_msg", "ns"),
		lo("dspe.pack_ns_per_msg", "ns"),
		lo("transport.encode_ns_per_msg", "ns"),
		lo("transport.decode_ns_per_msg", "ns"),
		exact(lo("transport.frame_bytes_per_msg", "B")),
		exact(hi("transport.dict_hit_ratio", "ratio")),
		lo("aggregation.accumulate_ns_per_msg", "ns"),
		lo("aggregation.flush_ns_per_msg", "ns"),
		lo("aggregation.combine_ns_per_msg", "ns"),
		lo("aggregation.reduce_ns_per_msg", "ns"),
		exact(lo("aggregation.partials_per_msg", "ratio")),
		exact(lo("aggregation.finals_per_msg", "ratio")),
		exact(lo("aggregation.replication", "ratio")),
		exact(lo("aggregation.combine_out_per_in", "ratio")),
		exact(lo("aggregation.reducer_peak_entries", "count")),
		lo("dspe.staged_sum_ns_per_msg", "ns"),
		// Pass 2: link micro-runs, two goroutines and one link.
		lo("ring.spsc_ns_per_msg", "ns"),
		lo("transport.mem_link_ns_per_msg", "ns"),
		lo("transport.tcp_link_ns_per_msg", "ns"),
		hi("transport.tcp_link_msgs_per_s", "1/s"),
		// Pass 3: the engine with EngineConfig.Telemetry set.
		lo("dspe.engine_cpu_ns_per_msg", "ns"),
		lo("dspe.spout_route_ns_per_msg", "ns"),
		lo("dspe.spout_ack_wait_share", "ratio"),
		lo("dspe.acquire_stall_share", "ratio"),
		lo("dspe.reduce_busy_share_max", "ratio"),
		lo("dspe.reduce_busy_share_mean", "ratio"),
		lo("dspe.reduce_live_entries_mean", "count"),
		lo("dspe.ack_window", "count"),
		lo("dspe.tuple_latency_p50_ms", "ms"),
		lo("dspe.tuple_latency_p99_ms", "ms"),
		exact(hi("core.head_share", "ratio")),
		exact(hi("core.cand_cache_hit_ratio", "ratio")),
		exact(hi("core.tree_argmin_share", "ratio")),
		lo("aggregation.bolt_partials_per_msg", "ratio"),
		lo("aggregation.reduce_partials_per_msg", "ratio"),
		lo("transport.tx_bytes_per_msg", "B"),
		hi("transport.frames_per_flush", "ratio"),
		lo("transport.send_stalls_per_mmsg", "count"),
		lo("transport.retransmit_frames", "count"),
		lo("transport.reconnects", "count"),
		lo("telemetry.overhead_pct", "%"),
		hi("transport.chaos_msgs_per_s", "1/s"),
		lo("transport.chaos_retransmit_frames", "count"),
		lo("transport.chaos_reconnects", "count"),
		// Pass 4: derived.
		lo("dspe.link_ns_per_msg", "ns"),
		lo("dspe.unattributed_ns_per_msg", "ns"),
		lo("dspe.unattributed_share", "ratio"),
	}
	for _, a := range algs {
		ms = append(ms,
			hi("dspe.msgs_per_s."+a, "1/s"),
			lo("dspe.latency_p99_ms."+a, "ms"),
			exact(lo("core.load_max_over_mean."+a, "ratio")),
			exact(lo("aggregation.replication."+a, "ratio")),
		)
	}
	for _, c := range routeMatrix {
		ms = append(ms,
			lo("core.route_ns_per_msg."+c.Name, "ns"),
			exact(lo("core.load_max_over_mean."+c.Name, "ratio")),
		)
	}
	return ms
}

func declOf(name string) (metricDecl, bool) {
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDecl{}, false
}

// benchmarkJSON renders the spec in the driver's fixed schema.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

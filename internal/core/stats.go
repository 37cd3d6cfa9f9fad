package core

// stats.go exposes the partitioners' internal path counters to the
// telemetry layer. The counters themselves are plain int64 fields —
// partitioners are single-goroutine by contract, and an atomic (or any
// shared write) on the routing hot path would violate the 0-alloc /
// ≤3%-overhead budget the root benchmarks pin. The bridge to shared
// telemetry is RouteRecorder: engines call it once per routed batch,
// publishing the *deltas* since the previous publish into atomic
// telemetry counters. Hot path stays private and cheap; observability
// is amortized over whole slabs.

import (
	"time"

	"slb/internal/telemetry"
)

// RouteStats is a point-in-time copy of one partitioner's internal
// routing counters. All values are cumulative over the partitioner's
// lifetime; gauges (sketch occupancy, current d) are instantaneous.
type RouteStats struct {
	// TreeMinPicks counts messages whose worker came out of an index
	// (the floor index's least-loaded worker, or a candidate
	// tournament's root); ScanMinPicks counts messages argmin'd by a
	// candidate scan. Their sum is the number of head-path argmins, not
	// total messages: the 2-choice tail path is neither.
	TreeMinPicks int64
	ScanMinPicks int64

	// HeadMsgs counts messages classified as head by the sketch.
	HeadMsgs int64

	// CandHits / CandMisses count head-candidate cache lookups that hit
	// or re-derived (one lookup serves a whole run; the hot-key memo
	// absorbs most hits before they reach the cache).
	CandHits   int64
	CandMisses int64

	// Sketch state: monitored entries, table capacity, and lifetime
	// min-counter evictions (head churn under drift).
	SketchLen       int
	SketchCap       int
	SketchEvictions uint64

	// TourBuilds / TourRepairs count head runs that built a candidate
	// tournament from scratch and runs that repaired a cached one by
	// replaying the load increments since its last use (loadtree.go).
	// Builds well above the number of hot keys mean the cache is churning.
	TourBuilds  int64
	TourRepairs int64

	// Solver state (D-Choices only): FINDOPTIMALCHOICES runs, the head
	// cardinality |H| the last run solved over, and the current head
	// choice count d. All 0 for schemes without a solver (ForcedD reports
	// its fixed d).
	Solves   int64
	HeadSize int
	D        int
}

// RouteStatser is implemented by partitioners that expose routing path
// counters. The head-tracking schemes (D-C, W-C, RR, ForcedD) and PKG
// implement it; KG and SG have no load-aware state worth reporting.
type RouteStatser interface {
	RouteStats() RouteStats
}

// Stats returns p's RouteStats when it exposes them (false otherwise).
func Stats(p Partitioner) (RouteStats, bool) {
	if rs, ok := p.(RouteStatser); ok {
		return rs.RouteStats(), true
	}
	return RouteStats{}, false
}

func (g *greedy) argminStats(s *RouteStats) {
	s.TreeMinPicks = g.nTreeMin
	s.ScanMinPicks = g.nScanMin
	s.TourBuilds = g.nTourBuilds
	s.TourRepairs = g.nTourRepairs
}

// RouteStats implements RouteStatser.
func (p *DChoices) RouteStats() RouteStats {
	s := RouteStats{
		HeadMsgs:   p.head.headMsgs,
		CandHits:   p.cache.hits,
		CandMisses: p.cache.misses,
		Solves:     p.solves,
		HeadSize:   p.headSize,
		D:          p.d,
	}
	p.argminStats(&s)
	s.SketchLen, s.SketchCap, s.SketchEvictions = p.head.sketchStats()
	return s
}

// RouteStats implements RouteStatser.
func (p *WChoices) RouteStats() RouteStats {
	s := RouteStats{HeadMsgs: p.head.headMsgs}
	p.argminStats(&s)
	s.SketchLen, s.SketchCap, s.SketchEvictions = p.head.sketchStats()
	return s
}

// RouteStats implements RouteStatser.
func (p *RoundRobin) RouteStats() RouteStats {
	s := RouteStats{HeadMsgs: p.head.headMsgs}
	p.argminStats(&s)
	s.SketchLen, s.SketchCap, s.SketchEvictions = p.head.sketchStats()
	return s
}

// RouteStats implements RouteStatser (PKG has no sketch or cache; only
// the argmin-path counters are meaningful, and PKG's 2-choice picks go
// through neither counted path, so they stay zero).
func (p *PKG) RouteStats() RouteStats {
	var s RouteStats
	p.argminStats(&s)
	return s
}

// ---------------------------------------------------------------------------
// Telemetry bridge

// RouteRecorder publishes one partitioner's routing activity into a
// telemetry registry: batch timing (ns and messages, from which ns/msg
// follows) plus the RouteStats deltas since the previous publish. One
// RecordBatch call per routed slab keeps the whole cost — a time.Now
// pair at the call site and ~15 atomic adds here — amortized over
// hundreds of messages, which is how the instrumented batch path stays
// within 3% of the uninstrumented one (pinned by
// BenchmarkRouteBatchDigestsInstrumented at the repo root).
type RouteRecorder struct {
	ns, msgs, batches       *telemetry.Counter
	treeMin, scanMin        *telemetry.Counter
	headMsgs                *telemetry.Counter
	candHits, candMiss      *telemetry.Counter
	tourBuilds, tourRepairs *telemetry.Counter
	sketchEvict, solves     *telemetry.Counter
	sketchLen, sketchCap    *telemetry.Gauge
	solverD, solverHead     *telemetry.Gauge

	last RouteStats
}

// NewRouteRecorder registers the routing metric series for one
// (engine, algo) pair and returns the recorder. Returns nil when reg is
// nil, and a nil recorder's RecordBatch is a no-op — engines hold one
// field and never branch on configuration elsewhere. Metric names are
// documented in the slb package doc (§ Telemetry).
func NewRouteRecorder(reg *telemetry.Registry, labels ...telemetry.Label) *RouteRecorder {
	if reg == nil {
		return nil
	}
	return &RouteRecorder{
		ns:          reg.Counter("route_ns_total", labels...),
		msgs:        reg.Counter("route_msgs_total", labels...),
		batches:     reg.Counter("route_batches_total", labels...),
		treeMin:     reg.Counter("route_tree_argmins_total", labels...),
		scanMin:     reg.Counter("route_scan_argmins_total", labels...),
		headMsgs:    reg.Counter("route_head_msgs_total", labels...),
		candHits:    reg.Counter("route_cand_cache_hits_total", labels...),
		candMiss:    reg.Counter("route_cand_cache_misses_total", labels...),
		tourBuilds:  reg.Counter("route_cand_tour_builds_total", labels...),
		tourRepairs: reg.Counter("route_cand_tour_repairs_total", labels...),
		sketchEvict: reg.Counter("sketch_evictions_total", labels...),
		solves:      reg.Counter("solver_runs_total", labels...),
		sketchLen:   reg.Gauge("sketch_entries", labels...),
		sketchCap:   reg.Gauge("sketch_capacity", labels...),
		solverD:     reg.Gauge("solver_d", labels...),
		solverHead:  reg.Gauge("solver_head_size", labels...),
	}
}

// RecordBatch publishes one routed batch: n messages took elapsed, and
// p's counters moved by (current − last published). Safe on a nil
// recorder.
func (r *RouteRecorder) RecordBatch(p Partitioner, n int, elapsed time.Duration) {
	if r == nil {
		return
	}
	r.ns.Add(elapsed.Nanoseconds())
	r.msgs.Add(int64(n))
	r.batches.Inc()
	s, ok := Stats(p)
	if !ok {
		return
	}
	r.treeMin.Add(s.TreeMinPicks - r.last.TreeMinPicks)
	r.scanMin.Add(s.ScanMinPicks - r.last.ScanMinPicks)
	r.headMsgs.Add(s.HeadMsgs - r.last.HeadMsgs)
	r.candHits.Add(s.CandHits - r.last.CandHits)
	r.candMiss.Add(s.CandMisses - r.last.CandMisses)
	r.tourBuilds.Add(s.TourBuilds - r.last.TourBuilds)
	r.tourRepairs.Add(s.TourRepairs - r.last.TourRepairs)
	r.sketchEvict.Add(int64(s.SketchEvictions - r.last.SketchEvictions))
	r.solves.Add(s.Solves - r.last.Solves)
	r.sketchLen.SetInt(int64(s.SketchLen))
	r.sketchCap.SetInt(int64(s.SketchCap))
	r.solverD.SetInt(int64(s.D))
	r.solverHead.SetInt(int64(s.HeadSize))
	r.last = s
}

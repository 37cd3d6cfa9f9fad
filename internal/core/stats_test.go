package core

import (
	"fmt"
	"testing"
	"time"

	"slb/internal/telemetry"
	"slb/internal/workload"
)

// skewedKeys builds a batch where one key dominates (guaranteeing head
// classification) with a spread of cold keys in between.
func skewedKeys(n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		keys = append(keys, "hot")
		if len(keys) < n {
			keys = append(keys, fmt.Sprintf("cold-%d", i%97))
		}
	}
	return keys
}

func TestRouteStatsDChoices(t *testing.T) {
	p := NewDChoices(Config{Workers: 8, Seed: 42})
	keys := skewedKeys(20000)
	digs := make([]KeyDigest, len(keys))
	dst := make([]int, len(keys))
	p.RouteBatchDigests(keys, digs, dst)

	s := p.RouteStats()
	if s.HeadMsgs == 0 {
		t.Fatal("expected head messages on a hot-key stream")
	}
	if s.HeadMsgs >= int64(len(keys)) {
		t.Fatalf("HeadMsgs = %d, want < %d (cold keys are tail)", s.HeadMsgs, len(keys))
	}
	if s.TreeMinPicks+s.ScanMinPicks == 0 {
		t.Fatal("expected argmin picks on the head path")
	}
	if s.CandHits+s.CandMisses == 0 && s.D < 8 {
		t.Fatal("expected candidate cache traffic at d < n")
	}
	if s.SketchLen == 0 || s.SketchCap == 0 {
		t.Fatalf("sketch stats unpopulated: %+v", s)
	}
	if s.Solves == 0 {
		t.Fatal("expected at least one solver run")
	}
	if s.HeadSize == 0 {
		t.Fatal("expected the last solve to have seen a head")
	}
	if s.D < 2 {
		t.Fatalf("D = %d, want >= 2", s.D)
	}

	// Per-message path must agree with the counters too.
	before := s.HeadMsgs
	for i := 0; i < 100; i++ {
		routeOne(p, "hot")
	}
	if got := p.RouteStats().HeadMsgs; got != before+100 {
		t.Fatalf("per-message head count moved %d, want 100", got-before)
	}
}

func TestRouteStatsInterfaceCoverage(t *testing.T) {
	cfg := Config{Workers: 8, Seed: 1}
	for _, p := range []Partitioner{
		NewDChoices(cfg), NewWChoices(cfg), NewRoundRobin(cfg), NewPKG(cfg),
	} {
		if _, ok := Stats(p); !ok {
			t.Fatalf("%T should implement RouteStatser", p)
		}
	}
	// ForcedD is a Fig 9 instrument that never runs under telemetry.
	for _, p := range []Partitioner{NewKeyGrouping(cfg), NewShuffleGrouping(cfg), NewForcedD(cfg, 4)} {
		if _, ok := Stats(p); ok {
			t.Fatalf("%T unexpectedly implements RouteStatser", p)
		}
	}
}

func TestRouteStatsSketchChurn(t *testing.T) {
	// Tiny sketch + many distinct keys forces evictions.
	p := NewWChoices(Config{Workers: 4, Seed: 3, SketchCapacity: 8, Theta: 0.2})
	for i := 0; i < 5000; i++ {
		routeOne(p, fmt.Sprintf("k%d", i%300))
	}
	s := p.RouteStats()
	if s.SketchEvictions == 0 {
		t.Fatal("expected sketch evictions with 300 keys in an 8-entry sketch")
	}
	if s.SketchLen != 8 || s.SketchCap != 8 {
		t.Fatalf("sketch len/cap = %d/%d, want 8/8", s.SketchLen, s.SketchCap)
	}
}

func TestRouteRecorderPublishesDeltas(t *testing.T) {
	reg := telemetry.NewRegistry()
	labels := []telemetry.Label{telemetry.L("algo", "D-C"), telemetry.L("engine", "test")}
	rec := NewRouteRecorder(reg, labels...)
	p := NewDChoices(Config{Workers: 8, Seed: 42})

	keys := skewedKeys(4096)
	digs := make([]KeyDigest, len(keys))
	dst := make([]int, len(keys))
	for batch := 0; batch < 4; batch++ {
		t0 := time.Now()
		p.RouteBatchDigests(keys, digs, dst)
		rec.RecordBatch(p, len(keys), time.Since(t0))
	}

	snap := reg.Snapshot()
	if v := snap.Value("route_msgs_total", labels...); v != 4*4096 {
		t.Fatalf("route_msgs_total = %v, want %d", v, 4*4096)
	}
	if v := snap.Value("route_batches_total", labels...); v != 4 {
		t.Fatalf("route_batches_total = %v, want 4", v)
	}
	if snap.Value("route_ns_total", labels...) <= 0 {
		t.Fatal("route_ns_total not populated")
	}
	// Published totals must equal the partitioner's cumulative stats
	// (delta publishing must not double-count or drop).
	s := p.RouteStats()
	if v := snap.Value("route_head_msgs_total", labels...); v != float64(s.HeadMsgs) {
		t.Fatalf("head msgs published %v, partitioner has %d", v, s.HeadMsgs)
	}
	if v := snap.Value("route_tree_argmins_total", labels...) + snap.Value("route_scan_argmins_total", labels...); v != float64(s.TreeMinPicks+s.ScanMinPicks) {
		t.Fatalf("argmin totals published %v, partitioner has %d", v, s.TreeMinPicks+s.ScanMinPicks)
	}
	if v := snap.Value("sketch_entries", labels...); v != float64(s.SketchLen) {
		t.Fatalf("sketch_entries = %v, want %d", v, s.SketchLen)
	}

	if v := snap.Value("solver_head_size", labels...); v != float64(s.HeadSize) || v == 0 {
		t.Fatalf("solver_head_size = %v, partitioner has %d", v, s.HeadSize)
	}
	if v := snap.Value("solver_d", labels...); v != float64(s.D) {
		t.Fatalf("solver_d = %v, partitioner has %d", v, s.D)
	}

	// The tournament counters are registered for every D-C run and move
	// with the partitioner's when lists are long enough to have any.
	big := NewDChoices(Config{Workers: 4096, Seed: 42})
	bigLabels := []telemetry.Label{telemetry.L("algo", "D-C"), telemetry.L("engine", "test-4096")}
	bigRec := NewRouteRecorder(reg, bigLabels...)
	hot := collectKeys(workload.NewZipf(2.0, 1000, 64<<10, 3))
	for i := 0; i+256 <= len(hot); i += 256 {
		big.RouteBatchDigests(hot[i:i+256], digs, dst)
		bigRec.RecordBatch(big, 256, time.Microsecond)
	}
	snap, bs := reg.Snapshot(), big.RouteStats()
	if bs.TourBuilds == 0 || bs.TourRepairs == 0 {
		t.Fatalf("n = 4096, z = 2.0 built %d and repaired %d tournaments", bs.TourBuilds, bs.TourRepairs)
	}
	if v := snap.Value("route_cand_tour_builds_total", bigLabels...); v != float64(bs.TourBuilds) {
		t.Fatalf("route_cand_tour_builds_total = %v, partitioner has %d", v, bs.TourBuilds)
	}
	if v := snap.Value("route_cand_tour_repairs_total", bigLabels...); v != float64(bs.TourRepairs) {
		t.Fatalf("route_cand_tour_repairs_total = %v, partitioner has %d", v, bs.TourRepairs)
	}

	// Nil recorder is a no-op (engines with telemetry off).
	var nilRec *RouteRecorder
	nilRec.RecordBatch(p, 10, time.Millisecond)
}
